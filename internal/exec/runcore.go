package exec

import (
	"time"

	"hdlts/internal/core"
	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// stepLaunch is a step attempt a pass started, launched once the pass has
// committed.
type stepLaunch struct{ step, proc int }

// runCore is one workflow run's scheduling state and every transition of
// it: dispatch, completion, retry and failure, the overdue check, re-plan
// and finalize. It reads no clock, starts no goroutine and holds no
// channel. Each transition takes now, the seconds since the run started,
// and leaves what must happen outside once the pass commits — stream
// events, step launches and tracer events — in buffers the run loop drains
// and reset clears. Its per-step state is rec.Steps itself: it writes rec
// under e.mu, because Get and List clone rec under that lock, and reads it
// without, because nothing else writes rec while the run is live.
type runCore struct {
	e     *Engine
	rec   *Record
	pr    *sched.Problem
	start time.Time // the wall time of now = 0: record timestamps are start + now
	drift float64
	sc    *sched.Schedule // the re-plans' schedule, reused across them

	order    [][]int   // per processor: the dispatch queue, in planned order
	depsLeft []int     // per step: dependencies not yet done
	proj     []float64 // per step: projected duration of the running attempt
	readyAt  []float64 // per step: when its last dependency delivered
	busy     []bool    // per processor: a step runs there
	done     int
	running  int
	failing  bool // a step failed for good: nothing more is dispatched
	failErr  string

	// What the current pass changed, and what it leaves to do.
	delta    *passDelta
	events   []obs.StreamEvent
	launches []stepLaunch
	traced   []obs.Event
}

// newRunCore takes over rec for a run whose now = 0 is start, dispatching
// in order. A nil order resumes a recovered record: the dispatch order is
// rebuilt, and the steps re-mapped, from what the record says finished.
func newRunCore(e *Engine, rec *Record, pr *sched.Problem, order [][]int, start time.Time) *runCore {
	n, procs := len(rec.Steps), rec.Spec.Procs
	c := &runCore{e: e, rec: rec, pr: pr, start: start, drift: rec.Spec.DriftThreshold(),
		sc: sched.NewSchedule(pr), order: order, depsLeft: make([]int, n),
		proj: make([]float64, n), readyAt: make([]float64, n), busy: make([]bool, procs),
		delta: newPassDelta(rec)}
	e.mu.Lock()
	rec.State, rec.StartedAt = Running, start
	e.mu.Unlock()
	c.delta.dirty = true
	for i := range rec.Steps {
		switch rec.Steps[i].State {
		case StepDone:
			c.done++
		case StepFailed: // it failed for good before a crash
			c.failing, c.failErr = true, rec.Steps[i].Error
		}
		for _, a := range pr.G.Preds(dag.TaskID(i)) {
			if rec.Steps[a.Task].State != StepDone {
				c.depsLeft[i]++
			}
		}
	}
	if order == nil {
		c.order = make([][]int, procs)
		c.replan(0, "resume")
	}
	return c
}

// at is the wall time of now, and rel the now of a wall time.
func (c *runCore) at(now float64) time.Time {
	return c.start.Add(time.Duration(now * float64(time.Second)))
}

func (c *runCore) rel(t time.Time) float64 { return t.Sub(c.start).Seconds() }

func (c *runCore) est(i, p int) float64 { return c.pr.Exec(dag.TaskID(i), platform.Proc(p)) }

// reset empties the pass buffers once the run loop has drained them.
func (c *runCore) reset() {
	c.events, c.launches, c.traced = c.events[:0], c.launches[:0], c.traced[:0]
}

// pass dispatches pending steps into idle processor slots and reports
// whether the run is over, and in which state.
func (c *runCore) pass(now float64) (st State, errMsg string, over bool) {
	c.dispatch(now)
	switch {
	case c.done == len(c.rec.Steps):
		return Done, "", true
	case c.failing && c.running == 0:
		return Failed, c.failErr, true
	case !c.failing && c.running == 0:
		// Cannot happen on a consistent order (see docs/EXECUTION.md);
		// re-mapping rebuilds consistency if a bug ever breaks it.
		c.replan(now, "stall")
		c.dispatch(now)
		if c.running == 0 {
			return Failed, "exec: dispatch stalled", true
		}
	}
	return "", "", false
}

// dispatch starts the head of every idle processor's queue whose
// dependencies are done. A blocked head blocks its queue.
func (c *runCore) dispatch(now float64) {
	if c.failing {
		return
	}
	for p, q := range c.order {
		if c.busy[p] || len(q) == 0 {
			continue
		}
		head := q[0]
		if c.rec.Steps[head].State != StepPending || c.depsLeft[head] > 0 {
			continue
		}
		c.order[p] = q[1:]
		c.startStep(now, head, p)
	}
}

func (c *runCore) startStep(now float64, i, p int) {
	w := c.est(i, p)
	// Queue wait: how long the step sat dispatchable (all dependencies
	// delivered) before its processor slot freed up — head-of-line
	// blocking in the per-processor FIFO, the executor-side analogue of
	// the schedule's idle gaps.
	wait := maxf(now-c.readyAt[i], 0)
	c.e.queueWait.Observe(wait)
	c.busy[p] = true
	c.running++
	c.proj[i] = w
	st := &c.rec.Steps[i]
	c.e.mu.Lock()
	st.State, st.Proc, st.EstSeconds = StepRunning, p, w
	st.Attempts++
	st.StartedAt, st.QueueWaitSeconds = c.at(now), wait
	c.e.mu.Unlock()
	c.delta.step(i)
	c.events = append(c.events, obs.StreamEvent{Kind: obs.KindStepRun, Workflow: c.rec.ID,
		TraceID: c.rec.TraceID, Step: c.rec.Spec.Steps[i].Name, Proc: p, Time: now, Value: wait})
	c.launches = append(c.launches, stepLaunch{step: i, proc: p})
}

// complete absorbs the end of step i's running attempt: observed seconds
// of wall time, failed when err is set. A failure with attempts left goes
// back to the head of its processor's queue; one without stops dispatch.
// A success records its observed W entry, delivers to its dependants, and
// re-plans when the observation drifted from the estimate.
func (c *runCore) complete(now float64, i int, observed float64, err error) {
	st := &c.rec.Steps[i]
	p, name := st.Proc, c.rec.Spec.Steps[i].Name
	c.busy[p] = false
	c.running--
	c.delta.step(i)
	if err != nil {
		retry := st.Attempts <= c.rec.Spec.Steps[i].Retries
		c.e.mu.Lock()
		st.Error = err.Error()
		if retry {
			st.State = StepPending
		} else {
			st.State, st.FinishedAt = StepFailed, c.at(now)
		}
		c.e.mu.Unlock()
		phase := "failed"
		if retry {
			c.e.cfg.Metrics.Counter(metricWorkflowSteps, "state", "retried").Inc()
			// The retry's queue wait starts now.
			c.order[p] = append([]int{i}, c.order[p]...)
			c.readyAt[i] = now
			phase = "retry"
		} else {
			c.e.cfg.Metrics.Counter(metricWorkflowSteps, "state", "failed").Inc()
			c.failing, c.failErr = true, err.Error()
		}
		c.events = append(c.events, obs.StreamEvent{Kind: obs.KindStepFail, Workflow: c.rec.ID,
			TraceID: c.rec.TraceID, Step: name, Phase: phase, Proc: p, Time: now})
		return
	}
	c.done++
	ratio := observed / maxf(st.EstSeconds, estFloor)
	c.e.mu.Lock()
	st.State, st.Error, st.ObservedSeconds, st.FinishedAt = StepDone, "", observed, c.at(now)
	c.rec.ObservedW = append(c.rec.ObservedW, WEntry{Step: name, Task: i, Proc: p, Seconds: observed})
	c.e.mu.Unlock()
	c.e.cfg.Metrics.Counter(metricWorkflowSteps, "state", "done").Inc()
	c.e.stepSecs.Observe(observed)
	c.e.driftHist.Observe(ratio)
	c.traced = append(c.traced, obs.Event{Type: obs.EvComplete, Alg: "exec", Task: i, Proc: p,
		Start: c.rel(st.StartedAt), Finish: now, Value: observed})
	c.events = append(c.events, obs.StreamEvent{Kind: obs.KindStepDone, Workflow: c.rec.ID,
		TraceID: c.rec.TraceID, Step: name, Proc: p, Time: now, Value: observed})
	for _, a := range c.pr.G.Succs(dag.TaskID(i)) {
		if c.depsLeft[a.Task]--; c.depsLeft[a.Task] == 0 {
			c.readyAt[a.Task] = now
		}
	}
	if ratio > c.drift || ratio*c.drift < 1 {
		c.replan(now, "drift")
	}
}

// overdue re-projects every running step past its projection by the drift
// factor to need one more estimate from now, and re-maps the frontier
// against that — the paper's ITQ recomputation applied to live drift,
// before the slow step even finishes.
func (c *runCore) overdue(now float64) {
	late := false
	for i := range c.rec.Steps {
		st := &c.rec.Steps[i]
		if st.State != StepRunning {
			continue
		}
		if elapsed := now - c.rel(st.StartedAt); elapsed > c.proj[i]*c.drift {
			c.proj[i] = elapsed + st.EstSeconds
			c.e.driftHist.Observe(elapsed / maxf(st.EstSeconds, estFloor))
			late = true
		}
	}
	if late {
		c.replan(now, "overdue")
	}
}

// replanner re-maps a run's frontier: the indexed core without entry
// duplication, which the executor cannot run.
var replanner = core.NewWithOptions(core.Options{DisableDuplication: true})

// replan re-maps the pending steps with one HDLTS solve seeded with the
// frontier: done steps finish when they did, running steps at their
// projection, and each processor is held until now or its running step's
// projected finish. Running steps never move.
func (c *runCore) replan(now float64, reason string) {
	steps := c.rec.Steps
	pending := 0
	c.sc.Reset(c.pr)
	for p := range c.busy {
		c.sc.Hold(platform.Proc(p), now)
	}
	for i, st := range steps {
		t, p := dag.TaskID(i), platform.Proc(st.Proc)
		switch st.State {
		case StepPending:
			pending++
		case StepDone: // an earlier life's at 0
			c.sc.Fix(t, p, maxf(c.rel(st.FinishedAt), 0))
		case StepRunning:
			f := c.rel(st.StartedAt) + c.proj[i]
			c.sc.Fix(t, p, f)
			c.sc.Hold(p, f)
		case StepFailed:
			c.sc.Fix(t, p, 0)
		}
	}
	if pending == 0 {
		return
	}
	if err := replanner.Extend(c.sc); err != nil {
		return // cannot happen on a valid DAG; keep the old mapping
	}
	c.order = queues(c.sc, len(steps), c.order)
	c.e.mu.Lock()
	for p, q := range c.order {
		for _, t := range q {
			if st, w := &steps[t], c.est(t, p); st.Proc != p || st.EstSeconds != w {
				st.Proc, st.EstSeconds = p, w
				c.delta.step(t)
			}
		}
	}
	c.rec.Replans++
	c.e.mu.Unlock()
	c.delta.dirty = true
	c.e.replans.Inc()
	c.traced = append(c.traced, obs.Event{Type: obs.EvReplan, Alg: "exec", Task: -1, Proc: -1,
		Time: now, Value: float64(pending)})
	c.events = append(c.events, obs.StreamEvent{Kind: obs.KindWorkflowReplan, Workflow: c.rec.ID,
		TraceID: c.rec.TraceID, Phase: reason, Proc: -1, Time: now, Value: float64(pending)})
}

// queues reads each processor's dispatch queue into order: the primary
// copies of the first n tasks of sc, in slot order — by start, ties in
// placement order, which is topological even among zero-cost steps.
func queues(sc *sched.Schedule, n int, order [][]int) [][]int {
	for p := range order {
		q := order[p][:0]
		for _, sl := range sc.ProcSlots(platform.Proc(p)) {
			if !sl.Duplicate && sl.Task >= 0 && int(sl.Task) < n {
				q = append(q, int(sl.Task))
			}
		}
		order[p] = q
	}
	return order
}

// finalize makes the record terminal, with the makespan now.
func (c *runCore) finalize(now float64, st State, errMsg string) {
	c.e.mu.Lock()
	for i := range c.rec.Steps {
		if c.rec.Steps[i].State == StepRunning {
			c.delta.step(i) // a cancel fails it
		}
	}
	c.e.finish(c.rec, st, errMsg, now, c.at(now))
	c.e.mu.Unlock()
	c.delta.dirty = true
	c.events = append(c.events, doneEvent(c.rec, now))
}
