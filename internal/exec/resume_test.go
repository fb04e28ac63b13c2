package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"hdlts/internal/obs"
)

// TestRecoveryQueuesForSlots crashes more unfinished workflows than the
// next life has run slots. Open must return without waiting for a slot;
// the recovered workflows wait as queued, take the single slot one at a
// time in submission order, and all finish, while one cancelled in the
// queue finishes cancelled without running. Under -race this also checks
// that every recovered record is installed before any run loop reads the
// table.
func TestRecoveryQueuesForSlots(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	park := newFakeRunner()
	for i := 0; i < n; i++ {
		park.sleep[fmt.Sprintf("w%d-a", i)] = time.Minute // parked mid-step until the "crash"
	}
	e1, err := Open(Config{Dir: dir, Metrics: obs.NewRegistry(), Runner: park.run,
		MaxActive: n})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ids := make([]string, n)
	for i := range ids {
		a, b := fmt.Sprintf("w%d-a", i), fmt.Sprintf("w%d-b", i)
		rec, err := e1.Submit(context.Background(), &Workflow{Procs: 1, Steps: []Step{
			{Name: a, Command: "true", Costs: []float64{0.01}},
			{Name: b, Command: "true", Depends: []string{a}, Costs: []float64{0.01}},
		}})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids[i] = rec.ID
	}
	for i := range ids {
		for park.count(fmt.Sprintf("w%d-a", i)) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Second life: one slot, and every step blocks until the gate opens,
	// so an Open that waited for slots would never return.
	gate := make(chan struct{})
	var mu sync.Mutex
	var ran []string
	runner := func(ctx context.Context, step Step) error {
		mu.Lock()
		ran = append(ran, step.Name)
		mu.Unlock()
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	opened := make(chan *Engine, 1)
	go func() {
		e, err := Open(Config{Dir: dir, Metrics: obs.NewRegistry(), Runner: runner,
			MaxActive: 1})
		if err != nil {
			t.Errorf("reopen: %v", err)
		}
		opened <- e
	}()
	var e2 *Engine
	select {
	case e2 = <-opened:
	case <-time.After(5 * time.Second):
		close(gate) // let the blocked Open finish before the test exits
		t.Fatal("Open blocked waiting for run slots")
	}
	if e2 == nil {
		t.FailNow()
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e2.Close(ctx)
	})

	for _, id := range ids[1:] {
		if r, err := e2.Get(id); err != nil || r.State != Queued {
			t.Fatalf("recovered %s behind a busy slot = %+v, %v; want queued", id, r, err)
		}
	}
	last := ids[n-1]
	got, err := e2.Cancel(last)
	if err != nil || got.State != Cancelled {
		t.Fatalf("Cancel queued %s = %+v, %v; want cancelled", last, got, err)
	}

	close(gate)
	var want []string
	for i, id := range ids[:n-1] {
		if r := waitDone(t, e2, id); r.State != Done {
			t.Errorf("%s finished %s (%s), want done", id, r.State, r.Error)
		}
		want = append(want, fmt.Sprintf("w%d-a", i), fmt.Sprintf("w%d-b", i))
	}
	if r := waitDone(t, e2, last); r.State != Cancelled {
		t.Errorf("cancelled %s finished %s", last, r.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(ran, want) {
		t.Errorf("steps ran in order %v, want %v (one slot, submission order)", ran, want)
	}
}
