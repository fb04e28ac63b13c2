package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hdlts/internal/gen"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
	"hdlts/internal/server"
)

const (
	jobBases = 16
	// jobCycle is the op pattern's length: jobCycle-1 never-seen problems,
	// then one repeat. A 1/3 repeat share keeps the latency median inside
	// the miss population; at 1/2 it would fall in the gap between the
	// fast hits and the slow misses and swing with both.
	jobCycle = 3
	// jobPrimeOps is how many ops the untimed priming phase runs, so set-up
	// replays a WAL of a few hundred jobs.
	jobPrimeOps = 402 // a whole number of cycles
	// jobMaxRate is the ops per second the pregenerated pool of never-seen
	// problems covers, about 3.4 times the reference host's rate. A run
	// that outpaces it ends its phase early, on a cycle boundary, rather
	// than repeat a problem.
	jobMaxRate = 500
	// jobHitWindow is how far back a repeat may reach, well inside the
	// server's 1024-entry result cache.
	jobHitWindow = 256
	jobPoll      = 250 * time.Microsecond
)

// jobsBench is jobs-v100-mixed: POST /v1/jobs with a durable store, then
// GET /v1/jobs/{id} until the job is terminal. Two of every three ops
// submit a problem never seen before (a cache miss the worker solves); the
// third resubmits one this run already completed (a cache hit answered at
// admission).
type jobsBench struct {
	seed  int64
	bases []jobBase
	// variants[k] is the k-th never-seen problem; priming uses the first
	// jobPrimeOps*(jobCycle-1)/jobCycle of them.
	variants []jobVariant
	rng      *rand.Rand // picks the repeats
	done     []int      // variants completed in the measured phases
	// offset is added to the loop's op index: measured ops follow the
	// priming ops in the variant sequence.
	offset int
	last   int // the variant the latest op sent
	cold   time.Duration
	svc    *service

	before map[string]float64
	// traced-phase figures from the job records
	queueWait, run time.Duration
	solved         int
}

// jobBase is one pooled 100-task problem. Variants change the W entry
// (task, proc); text is the wire form with that entry cut out, so a
// variant's body is prefix + value + suffix.
type jobBase struct {
	pr             *sched.Problem
	body           []byte
	makespan       float64
	task           int
	proc           platform.Proc
	prefix, suffix []byte
}

type jobVariant struct {
	base     int
	value    float64
	makespan float64
}

func (v jobVariant) body(b *jobsBench) []byte {
	base := &b.bases[v.base]
	out := make([]byte, 0, len(base.prefix)+len(base.suffix)+24)
	out = append(out, base.prefix...)
	out = strconv.AppendFloat(out, v.value, 'g', -1, 64)
	return append(out, base.suffix...)
}

func (b *jobsBench) generate(seed int64, d time.Duration) error {
	b.seed = seed
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < jobBases; i++ {
		pr, err := gen.Random(perfParams(100, 4), rng)
		if err != nil {
			return err
		}
		jb, err := newJobBase(pr, rng.Intn(pr.NumTasks()), platform.Proc(rng.Intn(pr.NumProcs())))
		if err != nil {
			return err
		}
		mk, took, err := oracleSolve(pr)
		if err != nil {
			return err
		}
		if i == 0 {
			b.cold = took
		}
		jb.makespan = mk
		b.bases = append(b.bases, jb)
	}
	n := (jobPrimeOps + int(d.Seconds()*jobMaxRate)) * (jobCycle - 1) / jobCycle
	for k := 0; k < n; k++ {
		base := &b.bases[k%jobBases]
		v := jobVariant{base: k % jobBases, value: base.pr.W.At(base.task, base.proc) + float64(k+1)*1e-3}
		w := base.pr.W.Clone()
		if err := w.Set(base.task, base.proc, v.value); err != nil {
			return err
		}
		pr, err := sched.NewProblem(base.pr.G, base.pr.P, w)
		if err != nil {
			return err
		}
		if v.makespan, _, err = oracleSolve(pr); err != nil {
			return err
		}
		b.variants = append(b.variants, v)
	}
	b.rng = rand.New(rand.NewSource(seed + 1))
	return nil
}

// newJobBase encodes pr as a submit body and splits it around W[task][proc],
// which it first sets to a marker value found nowhere else in the text.
func newJobBase(pr *sched.Problem, task int, proc platform.Proc) (jobBase, error) {
	jb := jobBase{pr: pr, task: task, proc: proc}
	raw, err := problemJSON(pr)
	if err != nil {
		return jb, err
	}
	if jb.body, err = json.Marshal(server.JobSubmitRequest{Algorithm: "hdlts", Problem: raw}); err != nil {
		return jb, err
	}
	w := pr.W.Clone()
	const marker = 987654.321
	if err := w.Set(task, proc, marker); err != nil {
		return jb, err
	}
	marked, err := sched.NewProblem(pr.G, pr.P, w)
	if err != nil {
		return jb, err
	}
	if raw, err = problemJSON(marked); err != nil {
		return jb, err
	}
	body, err := json.Marshal(server.JobSubmitRequest{Algorithm: "hdlts", Problem: raw})
	if err != nil {
		return jb, err
	}
	m := []byte(strconv.FormatFloat(marker, 'g', -1, 64))
	i := bytes.Index(body, m)
	if i < 0 || bytes.Count(body, m) != 1 {
		return jb, errors.New("cannot locate the variant entry in the problem text")
	}
	jb.prefix, jb.suffix = body[:i], body[i+len(m):]
	return jb, nil
}

func (b *jobsBench) config(dir string) server.Config {
	return server.Config{Jobs: jobs.Config{Dir: filepath.Join(dir, "jobs")}}
}

// prime runs the first jobPrimeOps ops of the mix against a store in dir
// and shuts the server down, leaving a WAL for set-up to replay.
func (b *jobsBench) prime(dir string) error {
	svc, err := startService(b.config(dir))
	if err != nil {
		return err
	}
	b.svc = svc
	for i := 0; i < jobPrimeOps; i++ {
		if r := b.op(i, nil); r.err != nil {
			return fmt.Errorf("priming op %d: %w", i, r.err)
		}
	}
	b.done = b.done[:0]
	b.offset = jobPrimeOps
	return b.teardown()
}

// setup reopens a copy of the primed store, replaying its WAL, and warms
// up with one job per pooled base problem, each decoded and validated.
func (b *jobsBench) setup(dir string, _ int) error {
	svc, err := startService(b.config(dir))
	if err != nil {
		return err
	}
	b.svc = svc
	for i := range b.bases {
		base := &b.bases[i]
		view, err := b.submitAndWait(nil, base.body, "", nil)
		if err != nil {
			return fmt.Errorf("warm-up base %d: %w", i, err)
		}
		var res server.ScheduleResponse
		if err := json.Unmarshal(view.Result, &res); err != nil {
			return fmt.Errorf("warm-up base %d: %w", i, err)
		}
		if err := checkSchedule(base.pr, res.Schedule, base.makespan); err != nil {
			return fmt.Errorf("warm-up base %d: %w", i, err)
		}
	}
	return nil
}

// submitAndWait submits body and polls until the job is terminal. submit,
// when set, receives the time until the admission reply.
func (b *jobsBench) submitAndWait(tr *tracer, body []byte, reqID string, submit *time.Duration) (*server.JobView, error) {
	t0 := time.Now()
	code, out, err := b.svc.call(tr, http.MethodPost, "/v1/jobs", reqID, body)
	if submit != nil {
		*submit = time.Since(t0)
	}
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %s", code, out)
	}
	var view server.JobView
	for {
		if err := json.Unmarshal(out, &view); err != nil {
			return nil, err
		}
		if view.State != string(jobs.Queued) && view.State != string(jobs.Running) {
			break
		}
		time.Sleep(jobPoll)
		code, out, err = b.svc.call(tr, http.MethodGet, "/v1/jobs/"+view.ID, "", nil)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("poll: status %d: %s", code, out)
		}
	}
	if view.State != string(jobs.Done) {
		return nil, fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	return &view, nil
}

func (b *jobsBench) reqID(i int) string { return fmt.Sprintf("jobs-%d-%d", b.seed, i+b.offset) }

// variantOf returns op i's input: the last op of each cycle repeats one of
// the last jobHitWindow completed variants, the others take the next
// never-seen one. It returns errStop at the start of a cycle the pool
// cannot finish.
func (b *jobsBench) variantOf(i int) (int, error) {
	if isRepeat(i) {
		if len(b.done) == 0 {
			return 0, errors.New("no completed job to repeat")
		}
		w := min(len(b.done), jobHitWindow)
		return b.done[len(b.done)-w+b.rng.Intn(w)], nil
	}
	k := i/jobCycle*(jobCycle-1) + i%jobCycle
	if i%jobCycle == 0 && k+jobCycle-2 >= len(b.variants) {
		return 0, errStop
	}
	return k, nil
}

// isRepeat reports whether op i is designed to be a cache hit.
func isRepeat(i int) bool { return i%jobCycle == jobCycle-1 }

func (b *jobsBench) op(i int, tr *tracer) opResult {
	reqID := b.reqID(i)
	i += b.offset
	k, err := b.variantOf(i)
	if err != nil {
		return opResult{err: err}
	}
	b.last = k
	v := b.variants[k]
	body := v.body(b)
	var r opResult
	t0 := time.Now()
	view, err := b.submitAndWait(tr, body, reqID, &r.submit)
	r.latency = time.Since(t0)
	switch {
	case err != nil:
		r.err = fmt.Errorf("op %d: %w", i, err)
	case view.CacheHit != isRepeat(i):
		r.err = fmt.Errorf("op %d: cache_hit %v, designed %v", i, view.CacheHit, isRepeat(i))
	default:
		r.err = checkMakespan(view.Result, v.makespan)
	}
	if r.err == nil && !isRepeat(i) {
		b.done = append(b.done, k)
		if tr != nil && view.StartedAt != nil && view.FinishedAt != nil {
			b.queueWait += view.StartedAt.Sub(view.SubmittedAt)
			b.run += view.FinishedAt.Sub(*view.StartedAt)
			b.solved++
		}
	}
	return r
}

func (b *jobsBench) replay(i int, tr *tracer) error {
	var req server.JobSubmitRequest
	pr, err := replaySubmit(tr, b.variants[b.last].body(b), &req, func() json.RawMessage { return req.Problem }, true)
	if err != nil {
		return err
	}
	if !isRepeat(i + b.offset) {
		// A miss is solved by a worker: the /v1/schedule pipeline.
		if err := replaySolve(tr, pr, b.reqID(i)); err != nil {
			return err
		}
	}
	return fetchTraceKiB(tr, b.svc, b.reqID(i))
}

var jobCounters = []string{
	"hdltsd_jobs_cache_hits_total",
	"hdltsd_jobs_cache_misses_total",
	"hdltsd_jobs_coalesced_total",
	"hdltsd_jobs_retries_total",
	"hdltsd_jobs_wal_fsync_seconds_count",
	"hdltsd_jobs_wal_fsync_seconds_sum",
}

// beforeTraced reads the counters the traced phase's deltas start from.
func (b *jobsBench) beforeTraced() (err error) {
	b.before, err = b.svc.scrape(jobCounters...)
	return err
}

func (b *jobsBench) layers(tr *tracer, primed string) (map[string]float64, error) {
	now, err := b.svc.scrape(jobCounters...)
	if err != nil {
		return nil, err
	}
	delta := func(k string) float64 { return now[k] - b.before[k] }
	ops := float64(tr.ops)
	extra := map[string]float64{
		"core.cold_solve_ms":     ms(b.cold),
		"obs.trace_kb_per_op":    tr.values["obs.trace_bytes"] / ops / 1024,
		"jobs.cache_hit_ratio":   delta(jobCounters[0]) / (delta(jobCounters[0]) + delta(jobCounters[1])),
		"jobs.coalesced_per_op":  delta(jobCounters[2]) / ops,
		"jobs.retries_per_op":    delta(jobCounters[3]) / ops,
		"jobs.wal_fsyncs_per_op": delta(jobCounters[4]) / ops,
	}
	if n := delta(jobCounters[4]); n > 0 {
		extra["jobs.wal_fsync_ms"] = delta(jobCounters[5]) / n * 1000
	}
	if b.solved > 0 {
		extra["jobs.queue_wait_ms"] = ms(b.queueWait) / float64(b.solved)
		extra["jobs.run_ms"] = ms(b.run) / float64(b.solved)
	}
	replay, err := b.replayStore(primed)
	if err != nil {
		return nil, err
	}
	extra["jobs.replay_ms"] = ms(replay)
	solveExtras(tr, extra)
	return extra, nil
}

// replayStore times jobs.Open on a fresh copy of the primed store: the WAL
// replay a restarted daemon performs before it serves.
func (b *jobsBench) replayStore(primed string) (time.Duration, error) {
	dir := primed + "-replay"
	defer os.RemoveAll(dir)
	if err := copyDir(primed, dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	m, err := jobs.Open(jobs.Config{
		Dir:     filepath.Join(dir, "jobs"),
		Metrics: obs.NewRegistry(),
		Run: func(context.Context, string, json.RawMessage) (json.RawMessage, error) {
			return nil, errors.New("the replay probe runs no jobs")
		},
	})
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return took, m.Close(ctx)
}

func (b *jobsBench) teardown() error {
	if b.svc == nil {
		return nil
	}
	err := b.svc.stop()
	b.svc = nil
	return err
}

func (b *jobsBench) setupReps() int        { return 5 }
func (b *jobsBench) stride() int           { return jobCycle }
func (b *jobsBench) service() *service     { return b.svc }
func (b *jobsBench) opsPerSecond() float64 { return 140 }
