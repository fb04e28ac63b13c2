package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"strconv"
	"sync"
	"time"

	"hdlts/internal/dag"
	"hdlts/internal/durable"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
)

// Metric series registered by this package.
const (
	metricWorkflowSteps     = "hdltsd_workflow_steps_total"
	metricWorkflowStepSecs  = "hdltsd_workflow_step_seconds"
	metricWorkflowDrift     = "hdltsd_workflow_drift_ratio"
	metricWorkflowReplans   = "hdltsd_workflow_replans_total"
	metricWorkflowActive    = "hdltsd_workflow_active"
	metricWorkflowWALFsync  = "hdltsd_workflow_wal_fsync_seconds"
	metricWorkflowWALErrors = "hdltsd_workflow_wal_errors_total"
	metricWorkflowQueueWait = "hdltsd_workflow_queue_wait_seconds"
)

// Sentinel errors of the engine API.
var (
	// ErrNotFound: no workflow with that ID.
	ErrNotFound = errors.New("exec: workflow not found")
	// ErrClosed: the engine has shut down.
	ErrClosed = errors.New("exec: engine is closed")
	// ErrFinished: the workflow is already terminal.
	ErrFinished = errors.New("exec: workflow already finished")
	// ErrSaturated: the engine already runs Config.MaxActive workflows;
	// the submission was refused before any state was created. Retry later.
	ErrSaturated = errors.New("exec: too many active workflows")
)

// DefaultMaxActive bounds concurrently executing workflows when
// Config.MaxActive is unset. Each active workflow costs one run-loop
// goroutine plus one goroutine per running step, so an unbounded engine
// would let a submission flood translate directly into goroutine floods.
const DefaultMaxActive = 64

// overdueTick is how often the run loop checks running steps against
// their drift deadline.
const overdueTick = 100 * time.Millisecond

// estFloor keeps drift ratios finite when a step declares a (near-)zero
// estimate.
const estFloor = 1e-3

// StepRunner executes one step attempt; the default runs the command via
// sh -c, killed when ctx expires (per-step timeout, cancellation,
// shutdown). Tests substitute deterministic runners.
type StepRunner func(ctx context.Context, step Step) error

// Config tunes an Engine. The zero value works: memory-only store, shell
// runner, default registry.
type Config struct {
	// Dir is the durable record store directory; empty means memory-only
	// (workflows do not survive a restart).
	Dir string
	// Metrics receives the hdltsd_workflow_* series (default obs.Default()).
	Metrics *obs.Registry
	// Traces, when set, receives the plan/execution span trees and replan
	// decision events, keyed by each workflow's trace ID.
	Traces *obs.TraceStore
	// Runner executes step attempts (default: sh -c command).
	Runner StepRunner
	// Stream, when set, receives live workflow transitions (workflow.plan,
	// step.run, step.done, step.fail, workflow.replan, workflow.done) —
	// the feed behind the SSE endpoints. Nil is fine: every publish site
	// no-ops on a nil hub.
	Stream *obs.Hub
	// MaxActive caps concurrently executing workflows (default
	// DefaultMaxActive). Submit refuses with ErrSaturated beyond it;
	// crash-recovered workflows instead queue for a free slot.
	MaxActive int
}

func (c Config) withDefaults() Config {
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.Runner == nil {
		c.Runner = RunShell
	}
	if c.MaxActive <= 0 {
		c.MaxActive = DefaultMaxActive
	}
	return c
}

// RunShell is the default StepRunner: the command runs under "sh -c" with
// the step's extra environment, and is killed when ctx expires. On failure
// the error carries the tail of the combined output.
func RunShell(ctx context.Context, step Step) error {
	cmd := osexec.CommandContext(ctx, "sh", "-c", step.Command)
	cmd.Env = append(os.Environ(), step.Env...)
	// Children of a killed shell keep the output pipes open; without a
	// wait delay a timed-out "sh -c 'sleep 100'" would block until the
	// orphaned sleep exits.
	cmd.WaitDelay = time.Second
	out, err := cmd.CombinedOutput()
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return fmt.Errorf("step %q: %w", step.Name, ctx.Err())
	}
	tail := out
	if len(tail) > 512 {
		tail = tail[len(tail)-512:]
	}
	if len(tail) > 0 {
		return fmt.Errorf("step %q: %w: %s", step.Name, err, tail)
	}
	return fmt.Errorf("step %q: %w", step.Name, err)
}

// Engine plans and executes workflows. All exported methods are safe for
// concurrent use.
type Engine struct {
	cfg Config

	// mu is the table lock: it guards the store's records and runs. Every
	// commit stages its WAL line under mu; the store's Flush writes them
	// after mu is released.
	mu    sync.Mutex
	store *durable.Store[*Record]
	// runs holds a run state for every record that is not terminal; it
	// is registered in the same critical section that stores the record.
	runs   map[string]*runState
	closed bool

	// baseCtx is the process-lifetime root workflow runs derive from;
	// Close cancels it, and with it every run.
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// slots is the run-admission semaphore: one send per live workflow,
	// received back when its run loop exits. Capacity is Config.MaxActive.
	slots chan struct{}

	active    *obs.Gauge
	replans   *obs.Counter
	walErrors *obs.Counter
	stepSecs  *obs.Histogram
	driftHist *obs.Histogram
	queueWait *obs.Histogram
}

// runState is the engine-side handle of one live workflow run.
type runState struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the run loop exits

	// Guarded by Engine.mu.
	cancelled bool // user-requested cancel (vs engine shutdown)
	queued    bool // recovered, still waiting for a run slot: no run loop yet
}

// resumed is a recovered workflow waiting in the resume queue.
type resumed struct {
	rec *Record
	pr  *sched.Problem
	rs  *runState
}

// Open builds an Engine, recovering any durable state from cfg.Dir:
// terminal workflows become queryable again, and unfinished ones resume —
// completed steps keep their observed durations and are not re-executed,
// steps that were mid-run when the process died are demoted to pending,
// and the remainder is re-mapped before dispatch continues under the
// workflow's original trace ID. Recovered workflows queue for run slots in
// submission order; Open does not wait for them.
func Open(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:       cfg,
		runs:      make(map[string]*runState),
		slots:     make(chan struct{}, cfg.MaxActive),
		active:    cfg.Metrics.Gauge(metricWorkflowActive),
		replans:   cfg.Metrics.Counter(metricWorkflowReplans),
		walErrors: cfg.Metrics.Counter(metricWorkflowWALErrors),
		stepSecs:  cfg.Metrics.Histogram(metricWorkflowStepSecs),
		driftHist: cfg.Metrics.Histogram(metricWorkflowDrift),
		queueWait: cfg.Metrics.Histogram(metricWorkflowQueueWait),
	}
	// Step durations span sleeps of milliseconds to batch jobs of hours;
	// drift ratios cluster around 1. Log-spaced buckets resolve both.
	// Queue waits (head-blocked time in a per-processor FIFO) range from
	// effectively zero on an idle slot to full step durations behind a
	// drifted predecessor — same log spacing as step durations.
	cfg.Metrics.SetBuckets(metricWorkflowStepSecs, obs.ExpBuckets(1e-3, 1e4, 3))
	cfg.Metrics.SetBuckets(metricWorkflowDrift, obs.ExpBuckets(1e-2, 1e2, 6))
	cfg.Metrics.SetBuckets(metricWorkflowQueueWait, obs.ExpBuckets(1e-3, 1e4, 3))
	// Workflow runs outlive the HTTP requests that submitted them (and,
	// after a crash, the process that did), so they hang off a root owned
	// by the Engine rather than any request context.
	//lint:hdltsvet-ignore ctxflow process-lifetime root: workflow runs outlive their submitting requests
	e.baseCtx, e.cancel = context.WithCancel(context.Background())
	var fsync *obs.Histogram
	if cfg.Dir != "" {
		cfg.Metrics.SetBuckets(metricWorkflowWALFsync, durable.FsyncBuckets)
		fsync = cfg.Metrics.Histogram(metricWorkflowWALFsync)
	}
	store, recovered, err := durable.Open[*Record](durable.Config{
		Dir: cfg.Dir, Key: durable.RecKey, Fsync: fsync, Errors: e.walErrors,
	}, &e.mu)
	if err != nil {
		return nil, err
	}
	e.store = store
	queue := e.adopt(recovered)
	e.store.Flush()
	if len(queue) > 0 {
		e.wg.Add(1)
		go e.resume(queue)
	}
	return e, nil
}

// adopt takes over the recovered records (in submission order) before any
// run loop starts: unfinished workflows go back to queued with their
// mid-run steps demoted to pending — re-executed, their consumed attempt
// still on the books — and are returned for the resume queue.
func (e *Engine) adopt(recovered []*Record) []resumed {
	e.mu.Lock()
	defer e.mu.Unlock()
	var queue []resumed
	for _, r := range recovered {
		if r.State.Terminal() {
			continue
		}
		for i := range r.Steps {
			if r.Steps[i].State == StepRunning {
				r.Steps[i].State = StepPending
			}
		}
		pr, err := r.compile()
		if err != nil {
			// A record that no longer compiles (it was validated at
			// submission) is corrupt; fail it rather than wedge recovery.
			r.State = Failed
			r.Error = fmt.Sprintf("recovery: %v", err)
			r.FinishedAt = time.Now()
			e.store.Put(r)
			continue
		}
		r.State = Queued
		e.store.Put(r)
		rs := e.newRun(r)
		rs.queued = true
		queue = append(queue, resumed{rec: r, pr: pr, rs: rs})
	}
	return queue
}

// compile re-compiles a recovered record's definition, refusing one whose
// step states no longer line up with its steps.
func (r *Record) compile() (*sched.Problem, error) {
	if r.Spec == nil {
		return nil, errors.New("record has no spec")
	}
	if len(r.Steps) != len(r.Spec.Steps) {
		return nil, fmt.Errorf("%d step states for %d steps", len(r.Steps), len(r.Spec.Steps))
	}
	return r.Spec.Compile()
}

// resume starts recovered workflows in submission order as run slots free
// up: they were admitted in a previous life, so they queue for slots
// rather than being refused. On shutdown the rest stay queued in the WAL
// for the next Open.
func (e *Engine) resume(queue []resumed) {
	defer e.wg.Done()
	for i, q := range queue {
		if e.resumeOne(q) {
			continue
		}
		e.mu.Lock()
		for _, q := range queue[i:] {
			if q.rs.queued {
				q.rs.queued = false
				close(q.rs.done)
			}
		}
		e.mu.Unlock()
		return
	}
}

// resumeOne waits for a run slot and starts q's run loop, unless q was
// cancelled while it queued. It reports false if the engine shut down
// first.
func (e *Engine) resumeOne(q resumed) bool {
	select {
	case e.slots <- struct{}{}:
	case <-e.baseCtx.Done():
		return false
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.slots
		return false
	}
	queued := q.rs.queued
	q.rs.queued = false
	e.mu.Unlock()
	if !queued {
		<-e.slots
		return true
	}
	// A nil order: the resume re-plan rebuilds dispatch order from what
	// the WAL says already finished.
	e.active.Inc()
	e.wg.Add(1)
	go e.run(q.rec, q.pr, nil, q.rs)
	return true
}

// Submit plans and starts one workflow. ctx carries the submitting
// request's trace identity: the initial HDLTS plan records a
// workflow.plan span (with the solver's decision events) under it, and
// the run loop keeps tracing under the same ID long after the request
// returns. The returned record is the admission snapshot — poll Get, or
// block on Wait, for progress.
func (e *Engine) Submit(ctx context.Context, wf *Workflow) (*Record, error) {
	pr, err := wf.Compile()
	if err != nil {
		return nil, err
	}
	// Admission control: take the run slot before planning or persisting
	// anything, so a saturated engine refuses cheaply and never leaves a
	// rejected record behind. The slot travels with the workflow: the run
	// loop returns it on exit.
	select {
	case e.slots <- struct{}{}:
	default:
		return nil, ErrSaturated
	}
	launched := false
	defer func() {
		if !launched {
			<-e.slots // admission succeeded but a later step failed
		}
	}()
	id := durable.NewID("wf-")
	_, span := obs.StartSpan(ctx, "workflow.plan",
		obs.KeyWorkflow, id, obs.KeyAlg, "HDLTS")
	rec, order, err := e.plan(ctx, wf, pr)
	span.Finish()
	if err != nil {
		return nil, fmt.Errorf("exec: plan: %w", err)
	}
	rec.ID, rec.TraceID, rec.SubmittedAt = id, obs.TraceIDFrom(ctx), time.Now()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	rec.Seq = e.store.NextSeq()
	e.store.Put(rec)
	rs := e.newRun(rec)
	snapshot := rec.clone()
	e.mu.Unlock()
	e.store.Flush()
	e.cfg.Stream.Publish(obs.StreamEvent{
		Kind:     obs.KindWorkflowPlan,
		Workflow: id,
		TraceID:  rec.TraceID,
		Proc:     -1,
		Value:    float64(len(wf.Steps)),
	})
	e.active.Inc()
	e.wg.Add(1)
	go e.run(rec, pr, order, rs)
	launched = true
	return snapshot, nil
}

// plan runs HDLTS over wf's compiled problem and returns wf's admission
// record, every step pending on its planned processor, and each
// processor's dispatch order by planned start. When the ctx carries a
// sampled trace, the solver's decision events land in the trace ring.
func (e *Engine) plan(ctx context.Context, wf *Workflow, pr *sched.Problem) (*Record, [][]int, error) {
	alg, err := registry.Get("hdlts")
	if err != nil {
		return nil, nil, err
	}
	prT := pr
	if ts := obs.TraceStoreFrom(ctx); ts != nil {
		if tid := obs.TraceIDFrom(ctx); tid != "" {
			prT = pr.WithTracer(obs.Named(ts.Tracer(tid), alg.Name()))
		}
	}
	sc, err := alg.Schedule(prT)
	if err != nil {
		return nil, nil, err
	}
	rec := &Record{Name: wf.Name, Spec: wf, State: Queued, Steps: make([]StepStatus, len(wf.Steps))}
	for i, st := range wf.Steps {
		pl, ok := sc.PlacementOf(dag.TaskID(i))
		if !ok {
			return nil, nil, fmt.Errorf("incomplete schedule: step %d unplaced", i)
		}
		p := int(pl.Proc)
		rec.Steps[i] = StepStatus{Name: st.Name, State: StepPending, PlannedProc: p, Proc: p,
			EstSeconds: pr.Exec(dag.TaskID(i), pl.Proc)}
	}
	return rec, queues(sc, len(wf.Steps), make([][]int, pr.NumProcs())), nil
}

// newRun registers the run state of rec (caller holds mu). Deliberately
// context-free: runs derive from the engine's process-lifetime root, not
// from any submitting request.
func (e *Engine) newRun(rec *Record) *runState {
	runCtx := obs.WithTraceID(e.baseCtx, rec.TraceID)
	if e.cfg.Traces != nil && rec.TraceID != "" {
		// Re-adopt the workflow's trace — after a restart this is what
		// stitches resumed execution onto the original plan's trace tree.
		e.cfg.Traces.Start(rec.TraceID)
		runCtx = obs.WithTraceStore(runCtx, e.cfg.Traces)
	}
	runCtx, cancel := context.WithCancel(runCtx)
	rs := &runState{ctx: runCtx, cancel: cancel, done: make(chan struct{})}
	e.runs[rec.ID] = rs
	return rs
}

// Get returns a copy of the workflow record, or ErrNotFound.
func (e *Engine) Get(id string) (*Record, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.store.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	return r.clone(), nil
}

// List returns every workflow record, newest submission first.
func (e *Engine) List() []*Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.store.List(nil)
	for i, r := range out {
		out[i] = r.clone()
	}
	return out
}

// Wait blocks until the workflow reaches a terminal state (returning the
// final record) or ctx expires.
func (e *Engine) Wait(ctx context.Context, id string) (*Record, error) {
	e.mu.Lock()
	r, ok := e.store.Get(id)
	if !ok {
		e.mu.Unlock()
		return nil, ErrNotFound
	}
	if r.State.Terminal() {
		defer e.mu.Unlock()
		return r.clone(), nil
	}
	rs := e.runs[id]
	e.mu.Unlock()
	select {
	case <-rs.done:
		return e.Get(id)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel stops a running workflow: running step commands are killed and
// the workflow finishes cancelled. A recovered workflow still queued for a
// run slot is cancelled on the spot. Terminal workflows return ErrFinished.
func (e *Engine) Cancel(id string) (*Record, error) {
	e.mu.Lock()
	r, ok := e.store.Get(id)
	if !ok {
		e.mu.Unlock()
		return nil, ErrNotFound
	}
	if r.State.Terminal() {
		e.mu.Unlock()
		return nil, ErrFinished
	}
	rs := e.runs[id]
	if rs.queued {
		rs.queued = false
		e.finish(r, Cancelled, "cancelled", 0, time.Now())
		e.store.Put(r)
		close(rs.done)
		c := r.clone()
		e.mu.Unlock()
		rs.cancel()
		e.store.Flush()
		e.cfg.Stream.Publish(doneEvent(c, 0))
		return c, nil
	}
	rs.cancelled = true
	e.mu.Unlock()
	rs.cancel()
	<-rs.done
	return e.Get(id)
}

// Close stops intake, kills running step commands, and waits — bounded by
// ctx — for run loops to commit their final state. Unfinished workflows
// stay running in the durable store and are resumed by the next Open with
// the same Dir.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	// Every run, and the resume queue, derives from the base context.
	e.cancel()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("exec: close: %w", ctx.Err())
	}
	return e.store.Close()
}

// finish sets rec's terminal state at wall time at (caller holds mu, and
// stages it) and drops its run state, which only non-terminal records
// keep. A step still running when a workflow is cancelled fails as
// cancelled.
func (e *Engine) finish(rec *Record, st State, errMsg string, makespan float64, at time.Time) {
	delete(e.runs, rec.ID)
	rec.State = st
	rec.Error = errMsg
	rec.FinishedAt = at
	rec.MakespanSeconds = makespan
	if st == Cancelled {
		for i := range rec.Steps {
			if rec.Steps[i].State == StepRunning {
				rec.Steps[i].State = StepFailed
				rec.Steps[i].Error = "cancelled"
				rec.Steps[i].FinishedAt = rec.FinishedAt
			}
		}
	}
}

// doneEvent is the workflow.done stream event for rec's terminal state.
func doneEvent(rec *Record, at float64) obs.StreamEvent {
	return obs.StreamEvent{
		Kind:     obs.KindWorkflowDone,
		Workflow: rec.ID,
		TraceID:  rec.TraceID,
		Phase:    string(rec.State),
		Proc:     -1,
		Time:     at,
	}
}

// stepOutcome carries one finished step attempt back to the run loop.
type stepOutcome struct {
	step int
	dur  time.Duration
	err  error
}

// run is the per-workflow execution loop, the shell around a runCore: it
// waits for a completion, an overdue tick or the end of the run context,
// reads the clock once per wake-up, and hands the core that time. The core
// dispatches pending steps into idle processor slots in planned order,
// absorbs completions, writes observed durations back, and re-maps the
// un-dispatched frontier whenever observation drifts from estimate.
//
// Each pass of the loop commits once. Its transitions — the completion or
// retry it absorbed, the re-plan that followed, and every start dispatch
// made — only mutate rec and mark in the pass's delta what they changed;
// commit then stages one patch line of those changes and writes it with one
// Flush, and only after that publishes the pass's stream events and
// launches its steps. A step's running line, with its attempt count, is
// therefore durable before its command starts. Nothing else changes rec
// while the loop runs, so no pass changes it between staging its patch and
// writing it, which is what a patch needs of its owner.
func (e *Engine) run(rec *Record, pr *sched.Problem, order [][]int, rs *runState) {
	defer e.wg.Done()
	defer close(rs.done)
	defer e.active.Dec()
	defer func() { <-e.slots }() // return the admission slot
	defer rs.cancel()            // release the run's context from baseCtx

	ctx, runSpan := obs.StartSpan(rs.ctx, "workflow.run",
		obs.KeyWorkflow, rec.ID, obs.KeyAlg, "exec")
	defer runSpan.Finish() // shutdown path: end did not run
	tr := obs.Nop
	if e.cfg.Traces != nil {
		if tid := obs.TraceIDFrom(ctx); tid != "" {
			tr = e.cfg.Traces.Tracer(tid)
		}
	}
	start := time.Now()
	c := newRunCore(e, rec, pr, order, start)
	completions := make(chan stepOutcome, len(rec.Steps))
	var stepWG sync.WaitGroup

	// launch runs one committed step attempt on its own goroutine, which
	// reports back on completions.
	launch := func(i, p int) {
		step := rec.Spec.Steps[i]
		stepWG.Add(1)
		go func() {
			defer stepWG.Done()
			sctx, cancel := rs.ctx, func() {}
			if step.Timeout > 0 {
				sctx, cancel = context.WithTimeout(rs.ctx, step.Timeout)
			}
			defer cancel()
			_, span := obs.StartSpan(ctx, "step.run",
				obs.KeyStep, step.Name, obs.KeyProc, strconv.Itoa(p))
			t0 := time.Now()
			err := e.cfg.Runner(sctx, step)
			if err != nil {
				span.SetAttr(obs.KeyStatus, "error")
			} else {
				span.SetAttr(obs.KeyStatus, "ok")
			}
			span.Finish()
			completions <- stepOutcome{step: i, dur: time.Since(t0), err: err}
		}()
	}

	// trace hands the pass's tracer events and re-plans to the trace.
	trace := func() {
		for _, ev := range c.traced {
			tr.Emit(ev)
		}
		for _, ev := range c.events {
			if ev.Kind == obs.KindWorkflowReplan {
				_, sp := obs.StartSpan(ctx, "workflow.replan",
					obs.KeyWorkflow, rec.ID, obs.KeyPhase, ev.Phase)
				sp.Finish()
			}
		}
	}

	// commit ends a pass: one patch line of what it changed and one
	// Flush, then its stream events and step launches. A pass that changed
	// nothing writes nothing.
	commit := func() {
		e.commit(rec, c.delta)
		for _, ev := range c.events {
			e.cfg.Stream.Publish(ev)
		}
		for _, l := range c.launches {
			launch(l.step, l.proc)
		}
		c.reset()
	}

	// end commits the terminal state together with the rest of the final
	// pass. The workflow.run span is finished first, so a reader that sees
	// the record terminal also finds the span in its trace.
	end := func(now float64, st State, errMsg string) {
		trace()
		runSpan.SetAttr(obs.KeyStatus, string(st))
		runSpan.Finish()
		c.finalize(now, st, errMsg)
		commit()
	}

	// stop ends the run once its context is done, by shutdown or
	// cancellation: it waits for the killed step commands' goroutines
	// before deciding what to record.
	stop := func() {
		stepWG.Wait()
		e.mu.Lock()
		cancelled := rs.cancelled
		e.mu.Unlock()
		if cancelled {
			end(time.Since(start).Seconds(), Cancelled, "cancelled")
		}
		// Engine shutdown: leave the record running in the WAL so the
		// next Open resumes it.
	}

	ticker := time.NewTicker(overdueTick)
	defer ticker.Stop()
	now := 0.0
	for {
		if st, errMsg, over := c.pass(now); over {
			end(now, st, errMsg)
			return
		}
		trace()
		commit()
		select {
		case out := <-completions:
			if rs.ctx.Err() != nil {
				// The attempt ended because the run is stopping, and its
				// result won the race with the stop: stop as if it had not.
				stop()
				return
			}
			now = time.Since(start).Seconds()
			c.complete(now, out.step, out.dur.Seconds(), out.err)
		case <-ticker.C:
			now = time.Since(start).Seconds()
			c.overdue(now)
		case <-rs.ctx.Done():
			stop()
			return
		}
	}
}

// passDelta is what one run-loop pass changed in its record, for the
// patch line its commit writes. Only the run loop's goroutine touches it.
type passDelta struct {
	dirty   bool
	changed []bool // per step
	wFrom   int    // len(ObservedW) as of the record's previous line
}

func newPassDelta(rec *Record) *passDelta {
	return &passDelta{changed: make([]bool, len(rec.Steps)), wFrom: len(rec.ObservedW)}
}

// step marks step i changed.
func (d *passDelta) step(i int) {
	d.changed[i] = true
	d.dirty = true
}

// commit stages rec's patch line for what d marked, writes it with one
// Flush, and clears d. A clean d writes nothing.
func (e *Engine) commit(rec *Record, d *passDelta) {
	if !d.dirty {
		return
	}
	e.mu.Lock()
	e.store.Patch(rec, rec.patch(d.changed, d.wFrom))
	d.wFrom = len(rec.ObservedW)
	e.mu.Unlock()
	e.store.Flush()
	clear(d.changed)
	d.dirty = false
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
