package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hdlts/internal/dag"
	"hdlts/internal/exec"
	"hdlts/internal/gen"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/server"
)

const (
	workflowDefs  = 24
	workflowSteps = 40
	// workflowPrimeOps is how many workflows priming runs before set-up
	// replays their records.
	workflowPrimeOps = 16
	// workflowMinEst is the smallest step estimate in seconds. A "true"
	// step takes a few milliseconds, so every observation lands far below
	// 1/drift of its estimate and the drift decision is the same each run.
	workflowMinEst = 0.1
)

// workflowBench is workflow-v40: seeded random 40-step DAGs on 4
// processors, sent as YAML to POST /v1/workflows and awaited until
// terminal. Every step runs "true" through the default shell runner.
type workflowBench struct {
	seed  int64
	defs  [][]byte
	preds [][][]int // per definition, the parents of each step
	order [][]int   // per definition, the steps in topological order
	cold  time.Duration
	svc   *service
	// offset is added to the loop's op index for request IDs, so priming
	// and measured ops never share one.
	offset int
	last   *server.WorkflowView // the latest op's final answer

	before map[string]float64
	// traced-phase figures from the workflow records
	dispatch, queueWait, overhead, step time.Duration
	steps, replans                      int
	recordBytes                         float64
}

func (b *workflowBench) generate(seed int64, _ time.Duration) error {
	b.seed = seed
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < workflowDefs; k++ {
		pr, err := gen.Random(perfParams(workflowSteps, 4), rng)
		if err != nil {
			return err
		}
		if k == 0 {
			if _, b.cold, err = oracleSolve(pr); err != nil {
				return err
			}
		}
		minW := pr.W.At(0, 0)
		for t := 0; t < pr.NumTasks(); t++ {
			for _, w := range pr.W.RowView(t) {
				minW = min(minW, w)
			}
		}
		scale := workflowMinEst / minW
		var y strings.Builder
		fmt.Fprintf(&y, "name: bench-%d\nprocs: %d\nsteps:\n", k, pr.NumProcs())
		parents := make([][]int, pr.NumTasks())
		for t := 0; t < pr.NumTasks(); t++ {
			fmt.Fprintf(&y, "  - name: s%02d\n    command: \"true\"\n", t)
			var deps []string
			for _, a := range pr.G.Preds(dag.TaskID(t)) {
				deps = append(deps, fmt.Sprintf("s%02d", a.Task))
				parents[t] = append(parents[t], int(a.Task))
			}
			if len(deps) > 0 {
				fmt.Fprintf(&y, "    depends: [%s]\n", strings.Join(deps, ", "))
			}
			costs := make([]string, 0, pr.NumProcs())
			for _, w := range pr.W.RowView(t) {
				costs = append(costs, strconv.FormatFloat(w*scale, 'g', 6, 64))
			}
			fmt.Fprintf(&y, "    costs: [%s]\n", strings.Join(costs, ", "))
		}
		if _, err := exec.DecodeWorkflow([]byte(y.String())); err != nil {
			return fmt.Errorf("definition %d: %w", k, err)
		}
		topo, err := pr.G.TopoOrder()
		if err != nil {
			return err
		}
		order := make([]int, len(topo))
		for i, t := range topo {
			order[i] = int(t)
		}
		b.defs = append(b.defs, []byte(y.String()))
		b.preds = append(b.preds, parents)
		b.order = append(b.order, order)
	}
	return nil
}

func (b *workflowBench) config(dir string) server.Config {
	return server.Config{Workflows: exec.Config{Dir: filepath.Join(dir, "workflows")}}
}

// prime runs workflowPrimeOps workflows against a store in dir and shuts
// the server down, leaving records for set-up to replay.
func (b *workflowBench) prime(dir string) error {
	svc, err := startService(b.config(dir))
	if err != nil {
		return err
	}
	b.svc = svc
	for i := 0; i < workflowPrimeOps; i++ {
		if r := b.op(i, nil); r.err != nil {
			return fmt.Errorf("priming op %d: %w", i, r.err)
		}
	}
	b.offset = workflowPrimeOps
	return b.teardown()
}

// setup reopens a copy of the primed store and runs each definition once.
func (b *workflowBench) setup(dir string, _ int) error {
	svc, err := startService(b.config(dir))
	if err != nil {
		return err
	}
	b.svc = svc
	for k := range b.defs {
		if _, err := b.submitAndWait(nil, k, "", nil); err != nil {
			return fmt.Errorf("warm-up definition %d: %w", k, err)
		}
	}
	return nil
}

// submitAndWait submits definition k, waits until the workflow is
// terminal, reads it back, and checks that it ran every step exactly once.
func (b *workflowBench) submitAndWait(tr *tracer, k int, reqID string, submit *time.Duration) (*server.WorkflowView, error) {
	t0 := time.Now()
	code, out, err := b.svc.call(tr, http.MethodPost, "/v1/workflows", reqID, b.defs[k])
	if submit != nil {
		*submit = time.Since(t0)
	}
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %s", code, out)
	}
	var view server.WorkflowView
	if err := json.Unmarshal(out, &view); err != nil {
		return nil, err
	}
	// Engine.Wait is the in-process long poll: the client learns of the
	// terminal state without a polling loop whose requests would scale
	// with latency and dominate the CPU per op. The answer it then reads
	// is the published record.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := b.svc.srv.Workflows().Wait(ctx, view.ID); err != nil {
		return nil, err
	}
	code, out, err = b.svc.call(tr, http.MethodGet, "/v1/workflows/"+view.ID, "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("get: status %d: %s", code, out)
	}
	if err := json.Unmarshal(out, &view); err != nil {
		return nil, err
	}
	if view.State != exec.Done {
		return nil, fmt.Errorf("workflow %s ended %s: %s", view.ID, view.State, view.Error)
	}
	if len(view.Steps) != workflowSteps {
		return nil, fmt.Errorf("workflow %s has %d steps", view.ID, len(view.Steps))
	}
	for _, st := range view.Steps {
		if st.State != exec.StepDone || st.Attempts != 1 {
			return nil, fmt.Errorf("workflow %s step %s: state %s after %d attempts", view.ID, st.Name, st.State, st.Attempts)
		}
	}
	return &view, nil
}

func (b *workflowBench) reqID(i int) string { return fmt.Sprintf("wf-%d-%d", b.seed, i+b.offset) }

func (b *workflowBench) op(i int, tr *tracer) opResult {
	k := i % len(b.defs)
	var r opResult
	t0 := time.Now()
	view, err := b.submitAndWait(tr, k, b.reqID(i), &r.submit)
	r.latency = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("op %d: %w", i, err)
		return r
	}
	b.last = view
	return r
}

// recordFigures reads the executor's layer timings off a finished
// workflow's published record.
func (b *workflowBench) recordFigures(v *server.WorkflowView, parents [][]int, order []int) error {
	if v.StartedAt == nil {
		return fmt.Errorf("workflow %s has no start time", v.ID)
	}
	finish := make([]time.Time, len(v.Steps))
	for i, st := range v.Steps {
		finish[i] = st.FinishedAt
	}
	chain := make([]float64, len(v.Steps)) // longest observed chain ending at each step
	longest := 0.0
	for _, i := range order {
		st := v.Steps[i]
		ready := *v.StartedAt
		for _, p := range parents[i] {
			if finish[p].After(ready) {
				ready = finish[p]
			}
			chain[i] = max(chain[i], chain[p])
		}
		chain[i] += st.ObservedSeconds
		longest = max(longest, chain[i])
		b.dispatch += st.StartedAt.Sub(ready)
		b.queueWait += time.Duration(st.QueueWaitSeconds * float64(time.Second))
		b.step += time.Duration(st.ObservedSeconds * float64(time.Second))
	}
	b.steps += len(v.Steps)
	b.replans += v.Replans
	b.overhead += time.Duration((v.Makespan - longest) * float64(time.Second))
	rec, err := b.svc.srv.Workflows().Get(v.ID)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b.recordBytes += float64(len(raw))
	return nil
}

// replay decodes, compiles and plans op i's definition the way POST
// /v1/workflows does; the plan is a traced HDLTS solve.
func (b *workflowBench) replay(i int, tr *tracer) error {
	if err := b.recordFigures(b.last, b.preds[i%len(b.defs)], b.order[i%len(b.defs)]); err != nil {
		return err
	}
	var wf *exec.Workflow
	err := tr.timed("exec.decode", func() (err error) { wf, err = exec.DecodeWorkflow(b.defs[i%len(b.defs)]); return err })
	if err != nil {
		return err
	}
	var pr *sched.Problem
	if err := tr.timed("exec.compile", func() (err error) { pr, err = wf.Compile(); return err }); err != nil {
		return err
	}
	alg, err := registry.Get("hdlts")
	if err != nil {
		return err
	}
	id := b.reqID(i)
	tr.traces.Start(id)
	traced := pr.WithTracer(obs.Named(tr.traces.Tracer(id), alg.Name()))
	if err := tr.timed("exec.plan", func() error { _, err := alg.Schedule(traced); return err }); err != nil {
		return err
	}
	return fetchTraceKiB(tr, b.svc, id)
}

var workflowCounters = []string{"hdltsd_workflow_wal_fsync_seconds_count"}

// beforeTraced reads the counters the traced phase's deltas start from.
func (b *workflowBench) beforeTraced() (err error) {
	b.before, err = b.svc.scrape(workflowCounters...)
	return err
}

func (b *workflowBench) layers(tr *tracer, primed string) (map[string]float64, error) {
	now, err := b.svc.scrape(workflowCounters...)
	if err != nil {
		return nil, err
	}
	ops := float64(tr.ops)
	steps := float64(b.steps)
	extra := map[string]float64{
		"core.cold_solve_ms":     ms(b.cold),
		"obs.trace_kb_per_op":    tr.values["obs.trace_bytes"] / ops / 1024,
		"exec.dispatch_ms":       ms(b.dispatch) / steps,
		"exec.queue_wait_ms":     ms(b.queueWait) / steps,
		"exec.step_ms":           ms(b.step) / steps,
		"exec.overhead_ms":       ms(b.overhead) / ops,
		"exec.replans_per_op":    float64(b.replans) / ops,
		"exec.wal_fsyncs_per_op": (now[workflowCounters[0]] - b.before[workflowCounters[0]]) / ops,
		"exec.record_kb":         b.recordBytes / ops / 1024,
	}
	replay, err := b.replayStore(primed)
	if err != nil {
		return nil, err
	}
	extra["exec.replay_ms"] = ms(replay)
	return extra, nil
}

// replayStore times exec.Open on a fresh copy of the primed store: the
// record replay a restarted daemon performs before it serves.
func (b *workflowBench) replayStore(primed string) (time.Duration, error) {
	dir := primed + "-replay"
	defer os.RemoveAll(dir)
	if err := copyDir(primed, dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	e, err := exec.Open(exec.Config{Dir: filepath.Join(dir, "workflows"), Metrics: obs.NewRegistry()})
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return took, e.Close(ctx)
}

func (b *workflowBench) teardown() error {
	if b.svc == nil {
		return nil
	}
	err := b.svc.stop()
	b.svc = nil
	return err
}

func (b *workflowBench) setupReps() int        { return 5 }
func (b *workflowBench) stride() int           { return 1 }
func (b *workflowBench) service() *service     { return b.svc }
func (b *workflowBench) opsPerSecond() float64 { return 10 }
