package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hdlts/internal/obs"
)

// fakeRunner executes steps as timed sleeps (per-step durations in
// milliseconds) and counts executions, giving the engine tests
// deterministic "observed" durations without shelling out.
type fakeRunner struct {
	mu    sync.Mutex
	sleep map[string]time.Duration
	fail  map[string]int // remaining attempts that should fail
	runs  map[string]int
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{
		sleep: make(map[string]time.Duration),
		fail:  make(map[string]int),
		runs:  make(map[string]int),
	}
}

func (fr *fakeRunner) run(ctx context.Context, step Step) error {
	fr.mu.Lock()
	fr.runs[step.Name]++
	d := fr.sleep[step.Name]
	failing := fr.fail[step.Name] > 0
	if failing {
		fr.fail[step.Name]--
	}
	fr.mu.Unlock()
	if d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if failing {
		return errors.New("injected failure")
	}
	return nil
}

func (fr *fakeRunner) count(step string) int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.runs[step]
}

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	return e
}

func waitDone(t *testing.T, e *Engine, id string) *Record {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec, err := e.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return rec
}

func TestEngineRunsWorkflow(t *testing.T) {
	fr := newFakeRunner()
	fr.sleep["a"] = 10 * time.Millisecond
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Metrics: reg, Runner: fr.run})
	wf := &Workflow{
		Procs: 2,
		Steps: []Step{
			{Name: "a", Command: "true", Costs: []float64{0.01}},
			{Name: "b", Command: "true", Depends: []string{"a"}, Costs: []float64{0.01}},
			{Name: "c", Command: "true", Depends: []string{"a"}, Costs: []float64{0.01}},
		},
	}
	rec, err := e.Submit(context.Background(), wf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if rec.State != Queued || len(rec.Steps) != 3 {
		t.Fatalf("admission snapshot = %v / %d steps", rec.State, len(rec.Steps))
	}
	final := waitDone(t, e, rec.ID)
	if final.State != Done {
		t.Fatalf("state = %v (error %q), want done", final.State, final.Error)
	}
	if len(final.ObservedW) != 3 {
		t.Fatalf("observed W entries = %d, want 3", len(final.ObservedW))
	}
	for _, st := range final.Steps {
		if st.State != StepDone || st.Attempts != 1 {
			t.Errorf("step %s: state %v attempts %d", st.Name, st.State, st.Attempts)
		}
		if st.ObservedSeconds < 0 {
			t.Errorf("step %s: negative observed duration", st.Name)
		}
	}
	if final.MakespanSeconds <= 0 {
		t.Errorf("makespan = %g, want > 0", final.MakespanSeconds)
	}
	if fr.count("a") != 1 || fr.count("b") != 1 || fr.count("c") != 1 {
		t.Errorf("execution counts: %v", fr.runs)
	}
	if v := reg.Counter(metricWorkflowSteps, "state", "done").Value(); v != 3 {
		t.Errorf("done counter = %v, want 3", v)
	}
	// b and c depend on a: they must have started after a finished.
	a := final.Steps[0]
	for _, st := range final.Steps[1:] {
		if st.StartedAt.Before(a.FinishedAt) {
			t.Errorf("step %s started %v before dependency a finished %v",
				st.Name, st.StartedAt, a.FinishedAt)
		}
	}
}

// TestEngineReplansOnDrift is the acceptance scenario: a step that runs
// far past its estimate must trigger live ITQ recomputation that moves
// queued work off the stalled processor, under the submitting trace ID.
func TestEngineReplansOnDrift(t *testing.T) {
	yaml := `name: drifty
procs: 2
steps:
  - name: prep
    command: sleep 0.03
    cost: 0.03
  - name: s1
    command: sleep 0.25
    depends: [prep]
    costs: [0.04, 0.06]
  - name: s2
    command: sleep 0.05
    depends: [prep]
    costs: [0.04, 0.06]
  - name: s3
    command: sleep 0.05
    depends: [prep]
    costs: [0.04, 0.06]
  - name: s4
    command: sleep 0.05
    depends: [prep]
    costs: [0.04, 0.06]
`
	wf, err := DecodeWorkflow([]byte(yaml))
	if err != nil {
		t.Fatalf("DecodeWorkflow: %v", err)
	}
	// The fake runner sleeps the declared durations exactly; s1's estimate
	// (0.04s on P0) is ~6x under its real 0.25s.
	fr := newFakeRunner()
	for _, st := range wf.Steps {
		var s float64
		fmt.Sscanf(st.Command, "sleep %g", &s)
		fr.sleep[st.Name] = time.Duration(s * float64(time.Second))
	}
	reg := obs.NewRegistry()
	ts := obs.NewTraceStore(16, 1)
	e := testEngine(t, Config{Dir: t.TempDir(), Metrics: reg, Traces: ts, Runner: fr.run})

	const traceID = "trace-drift-e2e"
	ts.Start(traceID)
	ctx := obs.WithTraceStore(obs.WithTraceID(context.Background(), traceID), ts)
	rec, err := e.Submit(ctx, wf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The initial HDLTS plan must queue at least one of s2..s4 behind the
	// (soon to be slow) s1 on the same processor — that is the head-of-line
	// blocking the re-plan is supposed to resolve.
	sameAsS1 := 0
	for _, st := range rec.Steps[2:] {
		if st.PlannedProc == rec.Steps[1].PlannedProc {
			sameAsS1++
		}
	}
	if sameAsS1 == 0 {
		t.Fatalf("degenerate plan: nothing shares a processor with s1: %+v", rec.Steps)
	}

	final := waitDone(t, e, rec.ID)
	if final.State != Done {
		t.Fatalf("state = %v (error %q), want done", final.State, final.Error)
	}
	if final.Replans < 1 {
		t.Fatalf("replans = %d, want >= 1", final.Replans)
	}
	moved := 0
	for _, st := range final.Steps {
		if st.Proc != st.PlannedProc {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("no step moved off its planned processor despite %d replans: %+v",
			final.Replans, final.Steps)
	}
	if len(final.ObservedW) != len(wf.Steps) {
		t.Fatalf("observed W entries = %d, want %d", len(final.ObservedW), len(wf.Steps))
	}
	for _, w := range final.ObservedW {
		if w.Seconds <= 0 {
			t.Errorf("observed W[%s][%d] = %g, want > 0", w.Step, w.Proc, w.Seconds)
		}
	}
	if v := reg.Counter(metricWorkflowReplans).Value(); v < 1 {
		t.Errorf("replan counter = %v, want >= 1", v)
	}

	// The trace must hold both the plan and the execution: a workflow.plan
	// span, step.run spans, and at least one EvReplan decision event
	// stamped by the executor.
	tr, ok := ts.Get(traceID)
	if !ok {
		t.Fatalf("trace %q not in store", traceID)
	}
	spans := map[string]int{}
	for _, sp := range tr.Spans {
		spans[sp.Name]++
	}
	if spans["workflow.plan"] != 1 {
		t.Errorf("workflow.plan spans = %d, want 1", spans["workflow.plan"])
	}
	if spans["workflow.run"] != 1 {
		t.Errorf("workflow.run spans = %d, want 1", spans["workflow.run"])
	}
	if spans["step.run"] < len(wf.Steps) {
		t.Errorf("step.run spans = %d, want >= %d", spans["step.run"], len(wf.Steps))
	}
	if spans["workflow.replan"] < 1 {
		t.Errorf("workflow.replan spans = %d, want >= 1", spans["workflow.replan"])
	}
	execReplans := 0
	for _, ev := range tr.Events {
		if ev.Type == obs.EvReplan && ev.Alg == "exec" {
			execReplans++
		}
	}
	if execReplans < 1 {
		t.Errorf("EvReplan(alg=exec) events = %d, want >= 1", execReplans)
	}
}

// TestEngineReplansOverdue is drift.yaml with slow blocked until the test
// releases it: slow claims 0.04 s and siblings queue behind it. The
// overdue tick must re-plan (phase overdue) while slow still runs, and
// every sibling must finish on another processor before slow completes.
func TestEngineReplansOverdue(t *testing.T) {
	wf, err := DecodeWorkflow([]byte(`name: overdue
procs: 2
drift: 1.5
steps:
  - name: prep
    command: "true"
    cost: 0.03
  - name: slow
    command: "true"
    depends: [prep]
    costs: [0.04, 0.06]
  - name: fan1
    command: "true"
    depends: [prep]
    costs: [0.04, 0.06]
  - name: fan2
    command: "true"
    depends: [prep]
    costs: [0.04, 0.06]
  - name: fan3
    command: "true"
    depends: [prep]
    costs: [0.04, 0.06]
  - name: join
    command: "true"
    depends: [slow, fan1, fan2, fan3]
    cost: 0.03
`))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	runner := func(ctx context.Context, st Step) error {
		if st.Name != "slow" {
			return nil
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	hub := obs.NewHub(obs.NewRegistry(), 0)
	sub := hub.Subscribe(obs.StreamFilter{Kinds: map[string]bool{
		obs.KindWorkflowReplan: true, obs.KindStepDone: true}}, 256)
	defer sub.Close()
	e := testEngine(t, Config{Runner: runner, Stream: hub})
	rec, err := e.Submit(context.Background(), wf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	behind := 0
	for _, st := range rec.Steps[2:5] {
		if st.PlannedProc == rec.Steps[1].PlannedProc {
			behind++
		}
	}
	if behind == 0 {
		t.Fatalf("degenerate plan: nothing queues behind slow: %+v", rec.Steps)
	}
	overdue, fans := false, 0
	timeout := time.After(10 * time.Second)
	for !overdue || fans < 3 {
		select {
		case ev := <-sub.C():
			switch {
			case ev.Kind == obs.KindWorkflowReplan && ev.Phase == "overdue":
				overdue = true
			case ev.Kind == obs.KindStepDone && strings.HasPrefix(ev.Step, "fan"):
				fans++
			}
		case <-timeout:
			t.Fatalf("overdue re-plan seen: %v; %d of 3 siblings done", overdue, fans)
		}
	}
	live, err := e.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	slow := live.Steps[1]
	if slow.State != StepRunning {
		t.Fatalf("slow is %s, want still running", slow.State)
	}
	for _, st := range live.Steps[2:5] {
		if st.Proc == slow.Proc {
			t.Errorf("%s ran on slow's processor %d", st.Name, st.Proc)
		}
	}
	close(release)
	if final := waitDone(t, e, rec.ID); final.State != Done {
		t.Fatalf("state = %v (error %q), want done", final.State, final.Error)
	}
}

func TestEngineRetries(t *testing.T) {
	fr := newFakeRunner()
	fr.fail["flaky"] = 2
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Metrics: reg, Runner: fr.run})
	wf := &Workflow{
		Procs: 1,
		Steps: []Step{{Name: "flaky", Command: "true", Retries: 2, Costs: []float64{0.01}}},
	}
	rec, err := e.Submit(context.Background(), wf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitDone(t, e, rec.ID)
	if final.State != Done {
		t.Fatalf("state = %v (error %q), want done", final.State, final.Error)
	}
	if got := final.Steps[0].Attempts; got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if fr.count("flaky") != 3 {
		t.Errorf("executions = %d, want 3", fr.count("flaky"))
	}
	if v := reg.Counter(metricWorkflowSteps, "state", "retried").Value(); v != 2 {
		t.Errorf("retried counter = %v, want 2", v)
	}
}

func TestEngineFailure(t *testing.T) {
	fr := newFakeRunner()
	fr.fail["bad"] = 1
	e := testEngine(t, Config{Runner: fr.run})
	wf := &Workflow{
		Procs: 1,
		Steps: []Step{
			{Name: "bad", Command: "false", Costs: []float64{0.01}},
			{Name: "after", Command: "true", Depends: []string{"bad"}, Costs: []float64{0.01}},
		},
	}
	rec, err := e.Submit(context.Background(), wf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitDone(t, e, rec.ID)
	if final.State != Failed {
		t.Fatalf("state = %v, want failed", final.State)
	}
	if !strings.Contains(final.Error, "injected failure") {
		t.Errorf("workflow error = %q", final.Error)
	}
	if final.Steps[0].State != StepFailed {
		t.Errorf("failed step state = %v", final.Steps[0].State)
	}
	if final.Steps[1].State != StepPending {
		t.Errorf("dependent step state = %v, want pending (never dispatched)", final.Steps[1].State)
	}
	if fr.count("after") != 0 {
		t.Errorf("dependent step executed %d times after failure", fr.count("after"))
	}
}

func TestEngineCancel(t *testing.T) {
	fr := newFakeRunner()
	fr.sleep["slow"] = time.Minute
	e := testEngine(t, Config{Runner: fr.run})
	wf := &Workflow{
		Procs: 1,
		Steps: []Step{{Name: "slow", Command: "sleep 60", Costs: []float64{60}}},
	}
	rec, err := e.Submit(context.Background(), wf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := e.Get(rec.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if r.Steps[0].State == StepRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("step never started: %+v", r.Steps[0])
		}
		time.Sleep(time.Millisecond)
	}
	final, err := e.Cancel(rec.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if final.State != Cancelled {
		t.Fatalf("state = %v, want cancelled", final.State)
	}
	if final.Steps[0].State != StepFailed || final.Steps[0].Error != "cancelled" {
		t.Errorf("step after cancel = %+v", final.Steps[0])
	}
	if _, err := e.Cancel(rec.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second Cancel error = %v, want ErrFinished", err)
	}
}

// TestCancelBeatsKilledAttempt: when a cancel kills a running step while
// the run loop is busy with another step's completion, the killed
// attempt's result and the cancel are both ready at the loop's next
// select. Whichever it takes, the workflow ends cancelled, not failed by
// the killed attempt's "context canceled". Each round leaves the choice
// to the select, so a loop that took the result as a step failure would
// pass all rounds with odds of 1 in 4096.
func TestCancelBeatsKilledAttempt(t *testing.T) {
	started := make(chan string, 2)
	finishA := make(chan struct{})
	killed := make(chan struct{}, 1)
	e := testEngine(t, Config{Runner: func(ctx context.Context, st Step) error {
		started <- st.Name
		if st.Name == "a" {
			<-finishA
			return nil
		}
		<-ctx.Done()
		killed <- struct{}{}
		return ctx.Err()
	}})
	wf := &Workflow{Procs: 2, Steps: []Step{
		{Name: "a", Command: "true", Costs: []float64{1, 9}},
		{Name: "b", Command: "true", Costs: []float64{9, 1}},
	}}
	for round := 0; round < 12; round++ {
		rec, err := e.Submit(context.Background(), wf)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		<-started
		<-started
		// Hold the table lock, so the loop, once it takes a's completion,
		// waits for it; meanwhile cancel as Engine.Cancel does, and let the
		// killed attempt of b report back. The sleeps give the loop and the
		// step goroutines time to get there.
		e.mu.Lock()
		finishA <- struct{}{}
		time.Sleep(10 * time.Millisecond)
		rs := e.runs[rec.ID]
		rs.cancelled = true
		rs.cancel()
		<-killed
		time.Sleep(10 * time.Millisecond)
		e.mu.Unlock()
		<-rs.done
		final, err := e.Get(rec.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if final.State != Cancelled {
			t.Fatalf("round %d: state = %v (%q), want cancelled", round, final.State, final.Error)
		}
	}
}

func TestEngineStepTimeout(t *testing.T) {
	fr := newFakeRunner()
	fr.sleep["slow"] = time.Minute
	e := testEngine(t, Config{Runner: fr.run})
	wf := &Workflow{
		Procs: 1,
		Steps: []Step{{Name: "slow", Command: "sleep 60",
			Timeout: 30 * time.Millisecond, Costs: []float64{0.01}}},
	}
	rec, err := e.Submit(context.Background(), wf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitDone(t, e, rec.ID)
	if final.State != Failed {
		t.Fatalf("state = %v, want failed (timeout)", final.State)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("error = %q, want a deadline error", final.Error)
	}
}

func TestEngineAPIErrors(t *testing.T) {
	e := testEngine(t, Config{Runner: newFakeRunner().run})
	if _, err := e.Get("wf-none"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get unknown = %v, want ErrNotFound", err)
	}
	if _, err := e.Cancel("wf-none"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel unknown = %v, want ErrNotFound", err)
	}
	if _, err := e.Wait(context.Background(), "wf-none"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Wait unknown = %v, want ErrNotFound", err)
	}
	bad := &Workflow{Procs: 1, Steps: []Step{{Name: "a", Command: "true", Depends: []string{"zz"}}}}
	if _, err := e.Submit(context.Background(), bad); err == nil {
		t.Errorf("Submit of invalid workflow succeeded")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ok := &Workflow{Procs: 1, Steps: []Step{{Name: "a", Command: "true"}}}
	if _, err := e.Submit(context.Background(), ok); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestEngineSaturation: a full engine refuses new submissions with
// ErrSaturated — before persisting anything — and admits again once a
// run loop exits and returns its slot.
func TestEngineSaturation(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	runner := func(ctx context.Context, step Step) error {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	e := testEngine(t, Config{Runner: runner, MaxActive: 1})
	wf := &Workflow{
		Procs: 1,
		Steps: []Step{{Name: "a", Command: "true", Costs: []float64{0.01}}},
	}
	first, err := e.Submit(context.Background(), wf)
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	<-started // the only slot is now occupied
	if _, err := e.Submit(context.Background(), wf); !errors.Is(err, ErrSaturated) {
		t.Fatalf("second Submit = %v, want ErrSaturated", err)
	}
	// The refused submission must leave no record behind.
	if got := len(e.List()); got != 1 {
		t.Fatalf("records after refusal = %d, want 1", got)
	}
	close(release)
	waitDone(t, e, first.ID)
	// Wait observes the terminal record a hair before the run loop's
	// deferred slot release runs; poll until admission reopens.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := e.Submit(context.Background(), wf)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("Submit after drain = %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("slot was never returned after the first run finished")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEngineList(t *testing.T) {
	e := testEngine(t, Config{Runner: newFakeRunner().run})
	var ids []string
	for i := 0; i < 3; i++ {
		wf := &Workflow{Procs: 1, Steps: []Step{{Name: "a", Command: "true", Costs: []float64{0.001}}}}
		rec, err := e.Submit(context.Background(), wf)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, rec.ID)
		waitDone(t, e, rec.ID)
	}
	list := e.List()
	if len(list) != 3 {
		t.Fatalf("List returned %d records, want 3", len(list))
	}
	for i, r := range list {
		if want := ids[len(ids)-1-i]; r.ID != want {
			t.Errorf("List[%d] = %s, want %s (newest first)", i, r.ID, want)
		}
	}
}

func TestRunShell(t *testing.T) {
	if err := RunShell(context.Background(), Step{Name: "ok", Command: "true"}); err != nil {
		t.Errorf("RunShell(true) = %v", err)
	}
	err := RunShell(context.Background(), Step{Name: "bad", Command: "echo whoops >&2; exit 3"})
	if err == nil || !strings.Contains(err.Error(), "whoops") {
		t.Errorf("RunShell(exit 3) = %v, want output tail in error", err)
	}
	err = RunShell(context.Background(), Step{Name: "env", Command: `test "$MODE" = fast`, Env: []string{"MODE=fast"}})
	if err != nil {
		t.Errorf("RunShell env passthrough = %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = RunShell(ctx, Step{Name: "slow", Command: "sleep 10"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("RunShell under expired ctx = %v, want deadline error", err)
	}
}
