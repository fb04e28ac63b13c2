package exec

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hdlts/internal/obs"
)

// TestTerminalWorkflowsReleaseRunState: the engine keeps a run state only
// for records that are not terminal. A shutdown keeps the entries of the
// workflows it leaves running; a recovered workflow cancelled in the
// resume queue, and workflows that finish done, failed and cancelled,
// leave none behind, and each finished run's context is cancelled, which
// releases it from the engine's root context.
func TestTerminalWorkflowsReleaseRunState(t *testing.T) {
	dir := t.TempDir()
	parked := func(ctx context.Context, step Step) error {
		<-ctx.Done()
		return ctx.Err()
	}
	e1, err := Open(Config{Dir: dir, Metrics: obs.NewRegistry(), Runner: parked,
		MaxActive: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var recovered []string
	for i := 0; i < 2; i++ {
		rec, err := e1.Submit(context.Background(), &Workflow{Procs: 1, Steps: []Step{
			{Name: "gated", Command: "true", Costs: []float64{0.01}},
		}})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		recovered = append(recovered, rec.ID)
	}
	for _, id := range recovered {
		deadline := time.Now().Add(5 * time.Second)
		for {
			r, err := e1.Get(id)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if r.Steps[0].State == StepRunning {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never started its step", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	e1.mu.Lock()
	kept := len(e1.runs)
	e1.mu.Unlock()
	if kept != 2 {
		t.Fatalf("shutdown left %d run states, want 2 (both records stay running)", kept)
	}

	// Second life, one run slot: the first recovered workflow takes it and
	// blocks on the gate, so the second waits queued.
	gate := make(chan struct{})
	var mu sync.Mutex
	var stepCtxs []context.Context
	runner := func(ctx context.Context, step Step) error {
		mu.Lock()
		stepCtxs = append(stepCtxs, ctx)
		mu.Unlock()
		switch step.Name {
		case "gated":
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		case "bad":
			return errors.New("injected failure")
		case "slow":
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	e := testEngine(t, Config{Dir: dir, Runner: runner, MaxActive: 1})
	e.mu.Lock()
	queuedRun := e.runs[recovered[1]]
	e.mu.Unlock()
	if queuedRun == nil {
		t.Fatalf("recovered %s has no run state", recovered[1])
	}
	if r, err := e.Cancel(recovered[1]); err != nil || r.State != Cancelled {
		t.Fatalf("Cancel queued %s = %+v, %v; want cancelled", recovered[1], r, err)
	}
	if queuedRun.ctx.Err() == nil {
		t.Error("cancelled queued workflow's run context is still live")
	}
	close(gate)
	if r := waitDone(t, e, recovered[0]); r.State != Done {
		t.Fatalf("recovered %s finished %s (%s), want done", recovered[0], r.State, r.Error)
	}

	// submit runs one single-step workflow to its end. A run loop returns
	// its slot just after the record turns terminal, so a submit right
	// after the previous workflow's end may briefly see the slot taken.
	submit := func(step string) string {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			rec, err := e.Submit(context.Background(), &Workflow{Procs: 1, Steps: []Step{
				{Name: step, Command: "true", Costs: []float64{0.01}},
			}})
			if err == nil {
				return rec.ID
			}
			if !errors.Is(err, ErrSaturated) || time.Now().After(deadline) {
				t.Fatalf("Submit %s: %v", step, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if r := waitDone(t, e, submit("ok")); r.State != Done {
		t.Errorf("ok workflow finished %s (%s)", r.State, r.Error)
	}
	if r := waitDone(t, e, submit("bad")); r.State != Failed {
		t.Errorf("bad workflow finished %s, want failed", r.State)
	}
	slow := submit("slow")
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := e.Get(slow)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if r.Steps[0].State == StepRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow step never started")
		}
		time.Sleep(time.Millisecond)
	}
	if r, err := e.Cancel(slow); err != nil || r.State != Cancelled {
		t.Fatalf("Cancel running %s = %+v, %v; want cancelled", slow, r, err)
	}

	e.mu.Lock()
	left := len(e.runs)
	e.mu.Unlock()
	if left != 0 {
		t.Errorf("%d run states left after every workflow finished, want 0", left)
	}
	// Steps without a timeout run under their workflow's run context. The
	// run loop cancels it as it exits, just after the record turns terminal.
	mu.Lock()
	defer mu.Unlock()
	for i, ctx := range stepCtxs {
		deadline := time.Now().Add(5 * time.Second)
		for ctx.Err() == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if ctx.Err() == nil {
			t.Errorf("run context of step attempt %d is still live after its workflow finished", i)
		}
	}
}
