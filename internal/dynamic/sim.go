// Package dynamic implements the paper's future-work scenario (Section VI):
// executing a workflow *online* in an uncertain heterogeneous environment.
//
// The offline algorithms of this repository plan against estimated costs;
// at run time actual execution and communication times deviate from the
// estimates, and processors may fail. This package provides an event-driven
// executor that replays scheduling policies under such uncertainty:
//
//   - OnlineHDLTS re-runs the HDLTS decision rule at run time: whenever a
//     processor event occurs it recomputes penalty values for the *current*
//     ready set against the *actual* state (the paper's claim is that the
//     dynamic ITQ makes HDLTS robust to exactly this);
//   - StaticMapping executes a fixed offline schedule's task→processor
//     mapping (per-processor order preserved), as a classic static plan
//     would be deployed;
//   - StaticOrderDynamicEFT keeps an offline priority order but re-selects
//     processors online by estimated EFT against actual availability — the
//     natural online adaptation of HEFT-style lists.
//
// Uncertainty is multiplicative jitter: the actual duration of a task (or
// transfer) is its estimate scaled by a uniform factor from
// [1−u, 1+u]; jitter draws are deterministic per (task, processor) under
// the simulation's RNG so all policies face identical realities. Failures
// stop a processor from accepting new work at a given time (the task
// running there, if any, completes — a graceful drain).
package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// Executor metric series names.
const (
	metricDispatch = "hdlts_dynamic_dispatch_total"
	metricComplete = "hdlts_dynamic_complete_total"
	metricFailures = "hdlts_dynamic_failures_total"
	metricPickTime = "hdlts_dynamic_pick_seconds"
)

// Executor metrics (default obs registry). Pick latency is recorded per
// policy under metricPickTime{policy=...}.
var (
	dispatchCount = obs.Default().Counter(metricDispatch)
	completeCount = obs.Default().Counter(metricComplete)
	failureCount  = obs.Default().Counter(metricFailures)
)

// Pick decisions are µs-scale for greedy policies; give the latency
// histogram log-spaced 1µs–1s buckets before any series is created.
func init() {
	obs.Default().SetBuckets(metricPickTime, obs.ExpBuckets(1e-6, 1, 3))
}

// Uncertainty configures run-time deviation from estimated costs.
type Uncertainty struct {
	// ExecJitter u scales actual execution times by U[1−u, 1+u]; 0 ≤ u < 1.
	ExecJitter float64
	// CommJitter scales actual communication times the same way.
	CommJitter float64
}

// Validate rejects meaningless jitter fractions.
func (u Uncertainty) Validate() error {
	if u.ExecJitter < 0 || u.ExecJitter >= 1 {
		return fmt.Errorf("dynamic: exec jitter %g outside [0, 1)", u.ExecJitter)
	}
	if u.CommJitter < 0 || u.CommJitter >= 1 {
		return fmt.Errorf("dynamic: comm jitter %g outside [0, 1)", u.CommJitter)
	}
	return nil
}

// Failure marks processor Proc as refusing new tasks from time At onward.
type Failure struct {
	Proc platform.Proc
	At   float64
}

// Reality holds the realised (actual) costs of one simulation run. It is
// generated once per run so every policy is measured against the same draw.
type Reality struct {
	pr   *sched.Problem
	exec []float64 // task × proc actual execution times
	comm map[[2]int][]float64
	fail []float64 // per processor: time of failure (+Inf if none)
}

// NewReality draws actual costs for a problem under the uncertainty model.
// The problem must be normalised (single entry/exit) — callers usually pass
// pr.Normalize().
func NewReality(pr *sched.Problem, u Uncertainty, failures []Failure, rng *rand.Rand) (*Reality, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	n, p := pr.NumTasks(), pr.NumProcs()
	r := &Reality{
		pr:   pr,
		exec: make([]float64, n*p),
		comm: make(map[[2]int][]float64),
		fail: make([]float64, p),
	}
	jitter := func(u float64) float64 {
		if u == 0 {
			return 1
		}
		return 1 - u + 2*u*rng.Float64()
	}
	for t := 0; t < n; t++ {
		for q := 0; q < p; q++ {
			r.exec[t*p+q] = pr.Exec(dag.TaskID(t), platform.Proc(q)) * jitter(u.ExecJitter)
		}
	}
	// One realised scale per edge (applied on top of the pairwise
	// bandwidth): transfers of one edge jitter coherently.
	for t := 0; t < n; t++ {
		for _, a := range pr.G.Succs(dag.TaskID(t)) {
			r.comm[[2]int{t, int(a.Task)}] = []float64{jitter(u.CommJitter)}
		}
	}
	for q := range r.fail {
		r.fail[q] = inf
	}
	for _, f := range failures {
		if int(f.Proc) < 0 || int(f.Proc) >= p {
			return nil, fmt.Errorf("dynamic: failure on unknown processor %d", f.Proc)
		}
		if f.At < 0 {
			return nil, fmt.Errorf("dynamic: failure time %g negative", f.At)
		}
		if f.At < r.fail[f.Proc] {
			r.fail[f.Proc] = f.At
		}
	}
	// At least one processor must stay alive or execution can deadlock.
	alive := false
	for _, ft := range r.fail {
		if ft == inf {
			alive = true
			break
		}
	}
	if !alive {
		return nil, fmt.Errorf("dynamic: every processor fails; nothing can finish")
	}
	return r, nil
}

var inf = math.Inf(1)

// Exec returns the realised execution time of t on p.
func (r *Reality) Exec(t dag.TaskID, p platform.Proc) float64 {
	return r.exec[int(t)*r.pr.NumProcs()+int(p)]
}

// Comm returns the realised communication time of edge (u→v) between two
// processors.
func (r *Reality) Comm(u, v dag.TaskID, data float64, a, b platform.Proc) float64 {
	base := r.pr.Comm(data, a, b)
	if base == 0 {
		return 0
	}
	if s, ok := r.comm[[2]int{int(u), int(v)}]; ok {
		return base * s[0]
	}
	return base
}

// Alive reports whether processor p accepts new tasks at the given time.
func (r *Reality) Alive(p platform.Proc, at float64) bool { return at < r.fail[p] }

// Result summarises one simulated execution.
type Result struct {
	Policy   string
	Makespan float64
	// Finish holds every task's actual finish time.
	Finish []float64
	// Proc holds every task's actual processor.
	Proc []platform.Proc
}

// state is the executor's view during a run.
type state struct {
	r        *Reality
	now      float64
	avail    []float64 // per processor: when it is free again
	start    []float64 // per task: actual start (−1 while pending)
	finish   []float64 // per task: actual finish (−1 while pending)
	proc     []platform.Proc
	remain   []int // unscheduled-parent counts
	ready    []dag.TaskID
	unplaced int
	// tr receives run-time events (dispatches, completions, failures,
	// drains, replans), each stamped with the policy name in alg.
	tr  obs.Tracer
	alg string
}

// Policy decides, at each scheduling opportunity, which ready task to start
// on which processor. Returning ok == false defers the remaining ready
// tasks until the next completion event (e.g. all preferred processors are
// busy and the policy wants to wait).
type Policy interface {
	Name() string
	// Pick inspects the current ready set and simulation state and returns
	// the next assignment. It is called repeatedly until it declines or the
	// ready set empties.
	Pick(st *State) (task dag.TaskID, proc platform.Proc, ok bool)
}

// State is the read-only view handed to policies.
type State struct {
	Problem *sched.Problem
	Reality *Reality
	Now     float64
	// Ready lists tasks whose parents all finished, ascending by ID.
	Ready []dag.TaskID
	// Avail is each processor's next-free time (≥ Now for busy processors).
	Avail []float64
	// Finish holds actual finish times for completed tasks, −1 otherwise.
	Finish []float64
	// Proc holds the processor of every started task (−1 otherwise).
	Proc []platform.Proc
}

// ArrivalAt returns the earliest time the inputs of task t are all present
// on processor p under the realised costs: the actual ready time.
func (s *State) ArrivalAt(t dag.TaskID, p platform.Proc) float64 {
	ready := 0.0
	for _, a := range s.Problem.G.Preds(t) {
		u := a.Task
		arr := s.Finish[u] + s.Reality.Comm(u, t, a.Data, s.Proc[u], p)
		if arr > ready {
			ready = arr
		}
	}
	return ready
}

// EstimatedEFT returns the *estimated* EFT of t on p given actual current
// availability (policies plan with estimates; reality bills actuals).
func (s *State) EstimatedEFT(t dag.TaskID, p platform.Proc) float64 {
	ready := 0.0
	for _, a := range s.Problem.G.Preds(t) {
		arr := s.Finish[a.Task] + s.Problem.Comm(a.Data, s.Proc[a.Task], p)
		if arr > ready {
			ready = arr
		}
	}
	est := ready
	if s.Avail[p] > est {
		est = s.Avail[p]
	}
	return est + s.Problem.Exec(t, p)
}

// Execute runs the workflow to completion under the given reality and
// policy, returning actual finish times. It returns an error if execution
// deadlocks (cannot happen with live processors and a sane policy, but
// guarded regardless).
//
// When the reality's problem carries a tracer (Problem.WithTracer), the
// run streams typed events: one EvReplan per policy consultation, EvDispatch
// and EvComplete per task (EvDrain when the task's processor had failed
// mid-run), and one EvFailure per realised processor failure. All event
// fields derive from simulation state, so a seeded run emits a
// deterministic stream; policy decision latency goes to the metrics
// registry instead (hdlts_dynamic_pick_seconds{policy=...}).
func Execute(r *Reality, pol Policy) (*Result, error) {
	pr := r.pr
	g := pr.G
	n := g.NumTasks()
	st := &state{
		r:        r,
		avail:    make([]float64, pr.NumProcs()),
		start:    make([]float64, n),
		finish:   make([]float64, n),
		proc:     make([]platform.Proc, n),
		remain:   make([]int, n),
		unplaced: n,
		tr:       pr.Tracer(),
		alg:      pol.Name(),
	}
	for t := 0; t < n; t++ {
		st.start[t] = -1
		st.finish[t] = -1
		st.proc[t] = -1
		st.remain[t] = g.InDegree(dag.TaskID(t))
		if st.remain[t] == 0 {
			st.ready = append(st.ready, dag.TaskID(t))
		}
	}
	pickTime := obs.Default().Histogram(metricPickTime, "policy", pol.Name())

	// failed tracks which processor failures have been reported already.
	failed := make([]bool, pr.NumProcs())
	emitFailures := func(upTo float64) {
		for q := range failed {
			if !failed[q] && r.fail[q] <= upTo {
				failed[q] = true
				failureCount.Inc()
				if st.tr.Enabled() {
					st.tr.Emit(obs.Event{Type: obs.EvFailure, Alg: st.alg, Task: -1, Proc: q, Time: r.fail[q]})
				}
			}
		}
	}
	emitFailures(st.now)

	// Completion events drive time forward. pending tracks started-but-
	// unfinished tasks by finish time.
	type event struct {
		at   float64
		task dag.TaskID
	}
	var pending []event

	view := &State{Problem: pr, Reality: r, Avail: st.avail, Finish: st.finish, Proc: st.proc}

	for st.unplaced > 0 || len(pending) > 0 {
		// Let the policy start as many ready tasks as it wants at time now.
		for len(st.ready) > 0 {
			sort.Slice(st.ready, func(i, j int) bool { return st.ready[i] < st.ready[j] })
			view.Now = st.now
			view.Ready = st.ready
			if st.tr.Enabled() {
				st.tr.Emit(obs.Event{Type: obs.EvReplan, Alg: st.alg, Task: -1, Proc: -1, Time: st.now, Value: float64(len(st.ready))})
			}
			pickStart := time.Now()
			task, proc, ok := pol.Pick(view)
			pickTime.ObserveSince(pickStart)
			if !ok {
				break
			}
			if err := st.startTask(task, proc); err != nil {
				return nil, err
			}
			pending = append(pending, event{at: st.finish[task], task: task})
		}
		if len(pending) == 0 {
			if st.unplaced > 0 {
				return nil, fmt.Errorf("dynamic: policy %s stalled with %d tasks unfinished", pol.Name(), st.unplaced)
			}
			break
		}
		// Advance to the earliest completion.
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].at != pending[j].at {
				return pending[i].at < pending[j].at
			}
			return pending[i].task < pending[j].task
		})
		ev := pending[0]
		pending = pending[1:]
		st.now = ev.at
		emitFailures(st.now)
		completeCount.Inc()
		if st.tr.Enabled() {
			p := st.proc[ev.task]
			st.tr.Emit(obs.Event{Type: obs.EvComplete, Alg: st.alg, Task: int(ev.task), Proc: int(p), Start: st.start[ev.task], Finish: ev.at})
			if !r.Alive(p, ev.at) {
				// The processor failed while the task was running; this
				// completion is the graceful drain.
				st.tr.Emit(obs.Event{Type: obs.EvDrain, Alg: st.alg, Task: int(ev.task), Proc: int(p), Time: ev.at, Finish: ev.at})
			}
		}
		for _, a := range g.Succs(ev.task) {
			st.remain[a.Task]--
			if st.remain[a.Task] == 0 {
				st.ready = append(st.ready, a.Task)
			}
		}
	}

	mk := 0.0
	for _, f := range st.finish {
		if f > mk {
			mk = f
		}
	}
	return &Result{
		Policy:   pol.Name(),
		Makespan: mk,
		Finish:   append([]float64(nil), st.finish...),
		Proc:     append([]platform.Proc(nil), st.proc...),
	}, nil
}

// startTask begins task t on processor p at the earliest feasible actual
// time.
func (st *state) startTask(t dag.TaskID, p platform.Proc) error {
	if st.finish[t] >= 0 || st.proc[t] >= 0 {
		return fmt.Errorf("dynamic: task %d started twice", t)
	}
	begin := st.now
	if st.avail[p] > begin {
		begin = st.avail[p]
	}
	// Data must actually arrive before the task runs.
	for _, a := range st.r.pr.G.Preds(t) {
		u := a.Task
		if st.finish[u] < 0 {
			return fmt.Errorf("dynamic: task %d started before parent %d finished", t, u)
		}
		arr := st.finish[u] + st.r.Comm(u, t, a.Data, st.proc[u], p)
		if arr > begin {
			begin = arr
		}
	}
	// A failed processor stops *accepting* tasks at its failure time;
	// acceptance happens at assignment time (now), so work accepted before
	// the failure drains gracefully.
	if !st.r.Alive(p, st.now) {
		return fmt.Errorf("dynamic: task %d assigned to failed processor P%d", t, p+1)
	}
	st.proc[t] = p
	st.start[t] = begin
	st.finish[t] = begin + st.r.Exec(t, p)
	st.avail[p] = st.finish[t]
	// Remove from the ready set.
	for i, id := range st.ready {
		if id == t {
			st.ready = append(st.ready[:i], st.ready[i+1:]...)
			st.unplaced--
			dispatchCount.Inc()
			if st.tr.Enabled() {
				st.tr.Emit(obs.Event{Type: obs.EvDispatch, Alg: st.alg, Task: int(t), Proc: int(p), Time: st.now, Start: begin, Finish: st.finish[t]})
			}
			return nil
		}
	}
	return fmt.Errorf("dynamic: task %d was not ready", t)
}
