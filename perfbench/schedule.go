package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"hdlts/internal/gen"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/server"
)

// perfParams are the internal/perf generator settings (Table II values):
// α 1.5, density 3, CCR 2, W_DAG 80, β 1.2.
func perfParams(v, procs int) gen.Params {
	return gen.Params{V: v, Alpha: 1.5, Density: 3, CCR: 2, Procs: procs, WDAG: 80, Beta: 1.2}
}

// oracleSolve is the untimed library solve that fixes an input's expected
// makespan. It returns the solve time too: the first one in the process
// is the cold solve core.cold_solve_ms reports.
func oracleSolve(pr *sched.Problem) (float64, time.Duration, error) {
	alg, err := registry.Get("hdlts")
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	sc, err := alg.Schedule(pr)
	if err != nil {
		return 0, 0, err
	}
	return sc.Makespan(), time.Since(t0), nil
}

// problemJSON is the wire form of pr.
func problemJSON(pr *sched.Problem) ([]byte, error) {
	var buf bytes.Buffer
	if err := pr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// numberAfter reads the JSON number following the first occurrence of key
// in body. Answers are checked this way so the oracle does not decode a
// whole schedule per op; warm-up decodes and validates them in full.
func numberAfter(body []byte, key string) (float64, error) {
	k := []byte(`"` + key + `":`)
	i := bytes.Index(body, k)
	if i < 0 {
		return 0, fmt.Errorf("answer has no %q", key)
	}
	rest := bytes.TrimLeft(body[i+len(k):], " \n\t")
	j := bytes.IndexAny(rest, ",}\n ")
	if j < 0 {
		return 0, fmt.Errorf("answer has a malformed %q", key)
	}
	return strconv.ParseFloat(string(rest[:j]), 64)
}

// checkSchedule decodes a schedule answer in full, validates it against pr
// (normalised, as solvers see it, so pseudo entry and exit tasks resolve)
// and compares its makespan with the oracle's.
func checkSchedule(pr *sched.Problem, raw json.RawMessage, want float64) error {
	sc, _, err := sched.ReadScheduleJSON(pr.Normalize(), bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	if got := sc.Makespan(); got != want {
		return fmt.Errorf("schedule makespan %v, oracle %v", got, want)
	}
	return nil
}

// scheduleBench is schedule-v1k: POST /v1/schedule round-robin over eight
// seeded 1000-task problems, served by a default-config server, which
// traces every request.
type scheduleBench struct {
	seed   int64
	inputs []scheduleInput
	cold   time.Duration
	svc    *service
}

type scheduleInput struct {
	pr       *sched.Problem // as the server decodes it
	body     []byte         // request envelope
	makespan float64
}

func (b *scheduleBench) generate(seed int64, _ time.Duration) error {
	b.seed = seed
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		pr, err := gen.Random(perfParams(1000, 8), rng)
		if err != nil {
			return err
		}
		raw, err := problemJSON(pr)
		if err != nil {
			return err
		}
		body, err := json.Marshal(server.ScheduleRequest{Algorithm: "hdlts", Problem: raw})
		if err != nil {
			return err
		}
		dec, err := sched.ReadProblemJSON(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		mk, took, err := oracleSolve(dec)
		if err != nil {
			return err
		}
		if i == 0 {
			b.cold = took
		}
		b.inputs = append(b.inputs, scheduleInput{pr: dec, body: body, makespan: mk})
	}
	return nil
}

func (b *scheduleBench) prime(string) error { return nil }

func (b *scheduleBench) setup(_ string, _ int) error {
	svc, err := startService(server.Config{})
	if err != nil {
		return err
	}
	b.svc = svc
	for i, in := range b.inputs {
		code, body, err := svc.call(nil, http.MethodPost, "/v1/schedule", "", in.body)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("warm-up input %d: status %d: %s", i, code, body)
		}
		var resp server.ScheduleResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if err := checkSchedule(in.pr, resp.Schedule, in.makespan); err != nil {
			return fmt.Errorf("warm-up input %d: %w", i, err)
		}
	}
	return nil
}

func (b *scheduleBench) reqID(i int) string { return fmt.Sprintf("sched-%d-%d", b.seed, i) }

func (b *scheduleBench) op(i int, tr *tracer) opResult {
	in := b.inputs[i%len(b.inputs)]
	t0 := time.Now()
	code, body, err := b.svc.call(tr, http.MethodPost, "/v1/schedule", b.reqID(i), in.body)
	lat := time.Since(t0)
	r := opResult{submit: lat, latency: lat, err: err}
	if err == nil && code != http.StatusOK {
		r.err = fmt.Errorf("op %d: status %d", i, code)
	}
	if r.err == nil {
		r.err = checkMakespan(body, in.makespan)
	}
	return r
}

func checkMakespan(body []byte, want float64) error {
	got, err := numberAfter(body, "makespan")
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("makespan %v, oracle %v", got, want)
	}
	return nil
}

func (b *scheduleBench) replay(i int, tr *tracer) error {
	in := b.inputs[i%len(b.inputs)]
	var req server.ScheduleRequest
	pr, err := replaySubmit(tr, in.body, &req, func() json.RawMessage { return req.Problem }, false)
	if err != nil {
		return err
	}
	if err := replaySolve(tr, pr, b.reqID(i)); err != nil {
		return err
	}
	return fetchTraceKiB(tr, b.svc, b.reqID(i))
}

func (b *scheduleBench) beforeTraced() error { return nil }

func (b *scheduleBench) layers(tr *tracer, _ string) (map[string]float64, error) {
	extra := map[string]float64{
		"core.cold_solve_ms":  ms(b.cold),
		"obs.trace_kb_per_op": tr.values["obs.trace_bytes"] / float64(tr.ops) / 1024,
	}
	solveExtras(tr, extra)
	return extra, nil
}

func (b *scheduleBench) teardown() error {
	if b.svc == nil {
		return nil
	}
	err := b.svc.stop()
	b.svc = nil
	return err
}

func (b *scheduleBench) setupReps() int        { return 5 }
func (b *scheduleBench) stride() int           { return 1 }
func (b *scheduleBench) service() *service     { return b.svc }
func (b *scheduleBench) opsPerSecond() float64 { return 25 }
