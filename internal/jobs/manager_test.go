package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hdlts/internal/obs"
)

// okRun returns a RunFunc that answers instantly and counts executions.
func okRun(runs *atomic.Int64) RunFunc {
	return func(_ context.Context, algorithm string, problem json.RawMessage) (json.RawMessage, error) {
		if runs != nil {
			runs.Add(1)
		}
		return json.RawMessage(fmt.Sprintf(`{"algorithm":%q}`, algorithm)), nil
	}
}

// newTestManager opens a memory-only manager and closes it on cleanup.
func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.GCInterval == 0 {
		cfg.GCInterval = time.Hour // tests drive gc() directly
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return m
}

// newTestPool builds a pool to wire into a manager and retires it on
// cleanup; register it before the manager so the manager closes first.
func newTestPool(t *testing.T, workers, capacity int) *Pool {
	t.Helper()
	p := NewPool(workers, capacity, nil)
	t.Cleanup(p.Close)
	return p
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, want State) *Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if j.State == want {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s): %+v", id, j.State, want, j)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	var runs atomic.Int64
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Run: okRun(&runs), Metrics: reg})
	j, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Queued || j.ID == "" || j.Hash != "h1" {
		t.Fatalf("submitted job = %+v", j)
	}
	got := waitState(t, m, j.ID, Done)
	if string(got.Result) != `{"algorithm":"HDLTS"}` || got.Attempts != 1 || got.CacheHit {
		t.Errorf("done job = %+v", got)
	}
	if runs.Load() != 1 {
		t.Errorf("runs = %d, want 1", runs.Load())
	}
	if v := reg.Counter("hdltsd_jobs_cache_misses_total").Value(); v != 1 {
		t.Errorf("cache misses = %d, want 1", v)
	}
}

// TestPanickingRunFailsJob: a RunFunc that panics fails its job with a
// "panic:" error. The pool's one worker survives it and runs the next
// job, and Close (on cleanup) still returns.
func TestPanickingRunFailsJob(t *testing.T) {
	run := func(ctx context.Context, algorithm string, problem json.RawMessage) (json.RawMessage, error) {
		if string(problem) == `"boom"` {
			panic("decode exploded")
		}
		return okRun(nil)(ctx, algorithm, problem)
	}
	m := newTestManager(t, Config{Run: run, Pool: newTestPool(t, 1, 4)})
	bad, err := m.Submit("HDLTS", "h-bad", json.RawMessage(`"boom"`))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitState(t, m, bad.ID, Failed); got.Error != "panic: decode exploded" {
		t.Errorf("panicked job error = %q", got.Error)
	}
	good, err := m.Submit("HDLTS", "h-good", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, good.ID, Done)
}

func TestCacheHitServesWithoutRun(t *testing.T) {
	var runs atomic.Int64
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Run: okRun(&runs), Metrics: reg})
	first, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, Done)

	second, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Error("cache hit reused the original job ID; want a fresh record")
	}
	if second.State != Done || !second.CacheHit {
		t.Errorf("cache-hit job = %+v, want done with CacheHit", second)
	}
	if string(second.Result) != `{"algorithm":"HDLTS"}` {
		t.Errorf("cached result = %s", second.Result)
	}
	if runs.Load() != 1 {
		t.Errorf("runs = %d, want 1 (second submit must not re-solve)", runs.Load())
	}
	if v := reg.Counter("hdltsd_jobs_cache_hits_total").Value(); v != 1 {
		t.Errorf("cache hits = %d, want 1", v)
	}
}

// blockingRun parks executions until released, making queue states
// deterministic.
type blockingRun struct {
	started chan string   // receives the algorithm per execution start
	release chan struct{} // closed to let every execution finish
	runs    atomic.Int64
}

func newBlockingRun() *blockingRun {
	return &blockingRun{started: make(chan string, 16), release: make(chan struct{})}
}

func (b *blockingRun) run(_ context.Context, algorithm string, problem json.RawMessage) (json.RawMessage, error) {
	b.runs.Add(1)
	b.started <- algorithm
	<-b.release
	return json.RawMessage(`{"ok":true}`), nil
}

func TestDuplicateInFlightSubmissionsCoalesce(t *testing.T) {
	blk := newBlockingRun()
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Run: blk.run, Metrics: reg})
	first, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	<-blk.started
	dup, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Errorf("duplicate submit got job %s, want coalesced onto %s", dup.ID, first.ID)
	}
	if v := reg.Counter("hdltsd_jobs_coalesced_total").Value(); v != 1 {
		t.Errorf("coalesced = %d, want 1", v)
	}
	close(blk.release)
	waitState(t, m, first.ID, Done)
	if blk.runs.Load() != 1 {
		t.Errorf("runs = %d, want 1", blk.runs.Load())
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	blk := newBlockingRun()
	m := newTestManager(t, Config{Run: blk.run, Pool: newTestPool(t, 1, 8)})
	running, err := m.Submit("HDLTS", "h-running", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	<-blk.started // worker busy; the next job stays queued
	queued, err := m.Submit("HDLTS", "h-queued", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}

	got, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != Cancelled {
		t.Errorf("cancelled queued job state = %s", got.State)
	}
	got, err = m.Cancel(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != Running || !got.CancelRequested {
		t.Errorf("cancel of running job = %+v, want running with CancelRequested", got)
	}

	close(blk.release)
	got = waitState(t, m, running.ID, Cancelled)
	if len(got.Result) != 0 {
		t.Errorf("cancelled job kept a result: %s", got.Result)
	}
	// The discarded result must not have seeded the cache.
	again, err := m.Submit("HDLTS", "h-running", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Error("cancelled job's result reached the cache")
	}
	waitState(t, m, again.ID, Done)

	if _, err := m.Cancel(again.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("cancel of done job = %v, want ErrFinished", err)
	}
	if _, err := m.Cancel("j-nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel of unknown job = %v, want ErrNotFound", err)
	}
}

func TestSubmitSaturationAndClosed(t *testing.T) {
	blk := newBlockingRun()
	m := newTestManager(t, Config{Run: blk.run, Pool: newTestPool(t, 1, 1)})
	if _, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	<-blk.started
	if _, err := m.Submit("HDLTS", "h2", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err) // fills the queue slot
	}
	if _, err := m.Submit("HDLTS", "h3", json.RawMessage(`{}`)); !errors.Is(err, ErrSaturated) {
		t.Errorf("submit into a full queue = %v, want ErrSaturated", err)
	}
	if _, total := m.List("", 0, 0); total != 2 {
		t.Errorf("%d jobs on the books after a refused submit, want 2", total)
	}
	close(blk.release)

	m2 := newTestManager(t, Config{Run: okRun(nil)})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := m2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Submit("HDLTS", "h1", json.RawMessage(`{}`)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close = %v, want ErrClosed", err)
	}
}

func TestListFilterAndPagination(t *testing.T) {
	m := newTestManager(t, Config{Run: okRun(nil)})
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := m.Submit("HDLTS", fmt.Sprintf("h%d", i), json.RawMessage(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		waitState(t, m, j.ID, Done) // serialise so Seq order is the loop order
	}
	all, total := m.List("", 0, 0)
	if total != 5 || len(all) != 5 {
		t.Fatalf("List all = %d jobs, total %d, want 5/5", len(all), total)
	}
	// Newest first.
	if all[0].ID != ids[4] || all[4].ID != ids[0] {
		t.Errorf("list order = %s..%s, want newest (%s) first", all[0].ID, all[4].ID, ids[4])
	}
	page, total := m.List(Done, 1, 2)
	if total != 5 || len(page) != 2 || page[0].ID != ids[3] || page[1].ID != ids[2] {
		t.Errorf("List(done, offset 1, limit 2) = %v (total %d)", page, total)
	}
	if page, total := m.List(Failed, 0, 0); total != 0 || len(page) != 0 {
		t.Errorf("List(failed) = %d/%d, want empty", len(page), total)
	}
	if page, total := m.List("", 99, 10); total != 5 || len(page) != 0 {
		t.Errorf("List beyond end = %d/%d, want 0 of 5", len(page), total)
	}
}

func TestGCExpiresFinishedJobs(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Run: okRun(nil), Metrics: reg, TTL: time.Minute})
	j, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, Done)

	m.gc() // fresh job survives
	if _, err := m.Get(j.ID); err != nil {
		t.Fatalf("job expired before TTL: %v", err)
	}
	m.mu.Lock()
	m.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	m.mu.Unlock()
	m.gc()
	if _, err := m.Get(j.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after TTL = %v, want ErrNotFound", err)
	}
	if v := reg.Counter("hdltsd_jobs_expired_total").Value(); v != 1 {
		t.Errorf("expired = %d, want 1", v)
	}
	// The cache outlives the record: a resubmission is still a hit.
	again, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("resubmission after GC missed the cache")
	}
}

func TestStateGaugesTrackLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Run: okRun(nil), Metrics: reg})
	j, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, Done)
	if v := reg.Gauge("hdltsd_jobs_state", "state", "done").Value(); v != 1 {
		t.Errorf("done gauge = %g, want 1", v)
	}
	for _, s := range []State{Queued, Running, Failed, Cancelled} {
		if v := reg.Gauge("hdltsd_jobs_state", "state", string(s)).Value(); v != 0 {
			t.Errorf("%s gauge = %g, want 0", s, v)
		}
	}
}

// TestDecodedReachesFreshRunsOnly: what SubmitTraced hands over is in the
// context of its job's run; a job submitted without it, and one
// recovered after a restart, which the store has only as bytes, run with
// none.
func TestDecodedReachesFreshRunsOnly(t *testing.T) {
	seen := make(chan any, 4)
	run := func(ctx context.Context, algorithm string, problem json.RawMessage) (json.RawMessage, error) {
		seen <- Decoded(ctx)
		return json.RawMessage(`{}`), nil
	}
	m := newTestManager(t, Config{Run: run})
	if _, err := m.SubmitTraced("HDLTS", "h1", "", json.RawMessage(`{"p":1}`), "handed over"); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != "handed over" {
		t.Errorf("fresh run's Decoded = %v, want the value handed over", got)
	}
	if _, err := m.Submit("HDLTS", "h2", json.RawMessage(`{"p":2}`)); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != nil {
		t.Errorf("run of a job submitted without a value: Decoded = %v, want nil", got)
	}

	dir := t.TempDir()
	crashed, err := Open(Config{Dir: dir, Pool: newTestPool(t, 0, 1), Metrics: obs.NewRegistry(), Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.SubmitTraced("HDLTS", "h3", "", json.RawMessage(`{"p":3}`), "handed over"); err != nil {
		t.Fatal(err)
	}
	newTestManager(t, Config{Dir: dir, Run: run})
	if got := <-seen; got != nil {
		t.Errorf("recovered run's Decoded = %v, want nil", got)
	}
}
