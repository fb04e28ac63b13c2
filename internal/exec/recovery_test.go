package exec

import (
	"context"
	"testing"
	"time"

	"hdlts/internal/obs"
)

// TestEngineRecoveryResumes is the crash-recovery contract: an engine shut
// down (or killed) mid-workflow leaves the record running in the WAL; the
// next Open over the same directory resumes it — completed steps keep
// their observed durations and are NOT re-executed, the interrupted step
// runs again, the resume counts as a re-plan, and execution continues
// under the workflow's original trace ID.
func TestEngineRecoveryResumes(t *testing.T) {
	dir := t.TempDir()
	fr := newFakeRunner()
	fr.sleep["mid"] = time.Minute // interrupted by the "crash"
	ts1 := obs.NewTraceStore(16, 1)
	e1, err := Open(Config{Dir: dir, Metrics: obs.NewRegistry(), Traces: ts1,
		Runner: fr.run})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const traceID = "trace-recovery"
	ts1.Start(traceID)
	ctx := obs.WithTraceStore(obs.WithTraceID(context.Background(), traceID), ts1)
	wf := &Workflow{
		Procs: 1,
		Steps: []Step{
			{Name: "first", Command: "true", Costs: []float64{0.01}},
			{Name: "mid", Command: "sleep 60", Depends: []string{"first"}, Costs: []float64{0.01}},
			{Name: "last", Command: "true", Depends: []string{"mid"}, Costs: []float64{0.01}},
		},
	}
	rec, err := e1.Submit(ctx, wf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := e1.Get(rec.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if r.Steps[0].State == StepDone && r.Steps[1].State == StepRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workflow never reached the mid-run shape: %+v", r.Steps)
		}
		time.Sleep(time.Millisecond)
	}
	// "Crash": Close kills the running command but, unlike Cancel, leaves
	// the record running in the WAL — exactly what a SIGKILL leaves behind.
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e1.Close(cctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := fr.count("mid"); got != 1 {
		t.Fatalf("mid ran %d times before the crash, want 1", got)
	}

	// Restart over the same directory with a fresh trace store.
	fr.mu.Lock()
	fr.sleep["mid"] = 0 // the retried attempt completes promptly
	fr.mu.Unlock()
	ts2 := obs.NewTraceStore(16, 1)
	e2 := testEngine(t, Config{Dir: dir, Traces: ts2, Runner: fr.run})
	final := waitDone(t, e2, rec.ID)
	if final.State != Done {
		t.Fatalf("state after resume = %v (error %q), want done", final.State, final.Error)
	}
	if final.TraceID != traceID {
		t.Fatalf("trace ID after resume = %q, want %q", final.TraceID, traceID)
	}
	if fr.count("first") != 1 {
		t.Errorf("completed step re-executed: first ran %d times", fr.count("first"))
	}
	if fr.count("mid") != 2 {
		t.Errorf("interrupted step ran %d times, want 2 (once per process)", fr.count("mid"))
	}
	if fr.count("last") != 1 {
		t.Errorf("last ran %d times, want 1", fr.count("last"))
	}
	if got := final.Steps[1].Attempts; got != 2 {
		t.Errorf("mid attempts = %d, want 2 (the crashed attempt stays on the books)", got)
	}
	if final.Replans < 1 {
		t.Errorf("replans = %d, want >= 1 (resume re-plans the frontier)", final.Replans)
	}
	// first completed before the crash; its observation must have survived.
	seen := map[string]bool{}
	for _, w := range final.ObservedW {
		seen[w.Step] = true
	}
	for _, name := range []string{"first", "mid", "last"} {
		if !seen[name] {
			t.Errorf("observed W lost entry for %q: %+v", name, final.ObservedW)
		}
	}
	// The resumed run traced under the original ID in the new store.
	tr, ok := ts2.Get(traceID)
	if !ok {
		t.Fatalf("resumed run did not re-adopt trace %q", traceID)
	}
	spans := map[string]int{}
	for _, sp := range tr.Spans {
		spans[sp.Name]++
	}
	if spans["workflow.run"] != 1 || spans["step.run"] < 2 {
		t.Errorf("resumed trace spans = %v, want workflow.run and step.run for mid+last", spans)
	}
}

// TestEngineRecoveryTerminal: finished workflows survive a restart as
// queryable history and are not re-run.
func TestEngineRecoveryTerminal(t *testing.T) {
	dir := t.TempDir()
	fr := newFakeRunner()
	e1, err := Open(Config{Dir: dir, Metrics: obs.NewRegistry(), Runner: fr.run})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	wf := &Workflow{Procs: 1, Steps: []Step{{Name: "a", Command: "true", Costs: []float64{0.001}}}}
	rec, err := e1.Submit(context.Background(), wf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := e1.Wait(ctx, rec.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := e1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2 := testEngine(t, Config{Dir: dir, Runner: fr.run})
	got, err := e2.Get(rec.ID)
	if err != nil {
		t.Fatalf("Get after restart: %v", err)
	}
	if got.State != Done || len(got.ObservedW) != 1 {
		t.Errorf("recovered record = %v / %d observations", got.State, len(got.ObservedW))
	}
	if fr.count("a") != 1 {
		t.Errorf("terminal workflow re-executed: a ran %d times", fr.count("a"))
	}
	// Sequence numbers keep advancing across restarts.
	rec2, err := e2.Submit(context.Background(), wf)
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if rec2.Seq <= got.Seq {
		t.Errorf("seq after restart = %d, want > %d", rec2.Seq, got.Seq)
	}
	waitDone(t, e2, rec2.ID)
}
