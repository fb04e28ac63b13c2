package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdlts/internal/obs"
)

// abandon closes a manager a test left behind as crashed, once its
// blocked attempts have been released.
func abandon(m *Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = m.Close(ctx)
}

// TestRecoveryRequeuesUnfinishedJobs is the crash test: a manager dies
// (abandoned, never closed — its WAL appends are fsynced per transition)
// with one job running and one queued; a second manager on the same dir
// must re-run both to completion.
func TestRecoveryRequeuesUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	blk := newBlockingRun()
	pool := NewPool(1, 8, nil)
	crashed, err := Open(Config{
		Dir: dir, Pool: pool, Metrics: obs.NewRegistry(), Run: blk.run,
	})
	if err != nil {
		t.Fatal(err)
	}
	runningJob, err := crashed.Submit("HDLTS", "h-running", json.RawMessage(`{"p":1}`))
	if err != nil {
		t.Fatal(err)
	}
	<-blk.started // first job is mid-execution; its "running" record is on disk
	queuedJob, err := crashed.Submit("HDLTS", "h-queued", json.RawMessage(`{"p":2}`))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate SIGKILL: the crashed manager is simply abandoned. Unblock
	// its stuck attempt at cleanup so the test process can exit cleanly.
	t.Cleanup(func() {
		close(blk.release)
		abandon(crashed)
		pool.Close()
	})

	var runs atomic.Int64
	m := newTestManager(t, Config{Dir: dir, Run: okRun(&runs)})
	for _, id := range []string{runningJob.ID, queuedJob.ID} {
		got := waitState(t, m, id, Done)
		if len(got.Result) == 0 {
			t.Errorf("recovered job %s has no result", id)
		}
	}
	if runs.Load() != 2 {
		t.Errorf("recovered runs = %d, want 2 (both unfinished jobs re-run)", runs.Load())
	}
	// The job that was mid-run when the process died shows the extra attempt.
	got, err := m.Get(runningJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attempts != 2 {
		t.Errorf("re-run job attempts = %d, want 2 (one lost to the crash)", got.Attempts)
	}
}

// TestRecoveryServesDoneFromWAL asserts the flip side: finished jobs are
// answered from the recovered store and cache without re-solving.
func TestRecoveryServesDoneFromWAL(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	first, err := Open(Config{Dir: dir, Metrics: obs.NewRegistry(), Run: okRun(&runs)})
	if err != nil {
		t.Fatal(err)
	}
	j, err := first.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, j.ID, Done)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := first.Close(ctx); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Dir: dir, Metrics: reg,
		Run: func(context.Context, string, json.RawMessage) (json.RawMessage, error) {
			return nil, errors.New("must not re-solve a done job")
		},
	})
	got, err := m.Get(j.ID)
	if err != nil {
		t.Fatalf("done job lost across restart: %v", err)
	}
	if got.State != Done || string(got.Result) != `{"algorithm":"HDLTS"}` {
		t.Errorf("recovered job = %+v", got)
	}
	// The recovered result seeded the cache: resubmitting is a hit.
	again, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != Done {
		t.Errorf("resubmission after restart = %+v, want a cache hit", again)
	}
	if v := reg.Counter("hdltsd_jobs_cache_hits_total").Value(); v != 1 {
		t.Errorf("cache hits = %d, want 1", v)
	}
	if runs.Load() != 1 {
		t.Errorf("runs = %d, want 1 (nothing re-solved after restart)", runs.Load())
	}
}

// TestDeleteRecordsSurviveReplay: GC deletions must hold across restarts.
func TestDeleteRecordsSurviveReplay(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir, Run: okRun(nil), TTL: time.Minute})
	j, err := m.Submit("HDLTS", "h1", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, Done)
	m.mu.Lock()
	m.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	m.mu.Unlock()
	m.gc()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}

	recovered := newTestManager(t, Config{Dir: dir, Run: okRun(nil)})
	if _, err := recovered.Get(j.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("GC'd job resurrected after restart: %v", err)
	}
}

// TestRecoveryKeepsTraceID: the request-correlation ID stamped at
// submission must survive the WAL round trip, and a re-run of an
// unfinished job must execute under the original trace ID.
func TestRecoveryKeepsTraceID(t *testing.T) {
	dir := t.TempDir()
	blk := newBlockingRun()
	crashed, err := Open(Config{
		Dir: dir, Metrics: obs.NewRegistry(), Run: blk.run,
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := crashed.SubmitTraced("HDLTS", "h1", "trace-cafe01", json.RawMessage(`{}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.TraceID != "trace-cafe01" {
		t.Fatalf("submitted trace ID = %q", j.TraceID)
	}
	<-blk.started // running record (with trace ID) is on disk
	t.Cleanup(func() {
		close(blk.release)
		abandon(crashed)
	})

	gotTrace := make(chan string, 1)
	m := newTestManager(t, Config{Dir: dir,
		Run: func(ctx context.Context, _ string, _ json.RawMessage) (json.RawMessage, error) {
			gotTrace <- obs.TraceIDFrom(ctx)
			return json.RawMessage(`{"ok":true}`), nil
		},
	})
	got := waitState(t, m, j.ID, Done)
	if got.TraceID != "trace-cafe01" {
		t.Errorf("recovered job trace ID = %q, want trace-cafe01", got.TraceID)
	}
	if id := <-gotTrace; id != "trace-cafe01" {
		t.Errorf("re-run executed under trace ID %q, want trace-cafe01", id)
	}
}

// TestRecoveryBoundsCrashReruns: a job whose attempt dies with the
// process every time (a solve that crashes the daemon) is re-run only
// until its attempts are used up; the next recovery fails it instead of
// running it again.
func TestRecoveryBoundsCrashReruns(t *testing.T) {
	dir := t.TempDir()
	blk := newBlockingRun()
	var crashed []*Manager
	t.Cleanup(func() {
		close(blk.release)
		for _, m := range crashed {
			abandon(m)
		}
	})
	var id string
	for cycle := 1; cycle <= 3; cycle++ {
		m, err := Open(Config{Dir: dir, MaxAttempts: 3, Metrics: obs.NewRegistry(), Run: blk.run})
		if err != nil {
			t.Fatal(err)
		}
		crashed = append(crashed, m)
		if cycle == 1 {
			j, err := m.Submit("HDLTS", "h-crash", json.RawMessage(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			id = j.ID
		}
		<-blk.started // attempt `cycle` is running; the process "dies"
	}

	m := newTestManager(t, Config{Dir: dir, MaxAttempts: 3, Run: okRun(nil)})
	got, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != Failed || got.Attempts != 3 || got.FinishedAt.IsZero() ||
		!strings.HasPrefix(got.Error, "recovery:") {
		t.Errorf("job after 3 interrupted attempts = %+v, want failed with a recovery: error", got)
	}
	if n := blk.runs.Load(); n != 3 {
		t.Errorf("runs = %d, want 3", n)
	}
	// The failure is durable: a further restart does not revive the job.
	again := newTestManager(t, Config{Dir: dir, Run: okRun(nil)})
	if got, err := again.Get(id); err != nil || got.State != Failed {
		t.Errorf("job after another restart = %+v, %v; want failed", got, err)
	}
}

// TestRecoveryBacklogWaitsForPool: more recovered jobs than the pool can
// hold all reach done, and Open returns without waiting for capacity.
func TestRecoveryBacklogWaitsForPool(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	blk := newBlockingRun()
	crashedPool := NewPool(1, n, nil)
	crashed, err := Open(Config{Dir: dir, Pool: crashedPool, Metrics: obs.NewRegistry(), Run: blk.run})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < n; i++ {
		j, err := crashed.Submit("HDLTS", fmt.Sprintf("h%d", i), json.RawMessage(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	<-blk.started // one running, the rest queued; the process "dies"
	t.Cleanup(func() {
		close(blk.release)
		abandon(crashed)
		crashedPool.Close()
	})

	gate := newBlockingRun()
	m := newTestManager(t, Config{Dir: dir, Pool: newTestPool(t, 1, 1), Run: gate.run})
	<-gate.started // Open returned with n jobs recovered and room for 2
	for _, id := range ids[2:] {
		if j, err := m.Get(id); err != nil || j.State != Queued {
			t.Fatalf("job %s = %+v, %v; want queued behind the full pool", id, j, err)
		}
	}
	close(gate.release)
	for _, id := range ids {
		waitState(t, m, id, Done)
	}
	if got := gate.runs.Load(); got != n {
		t.Errorf("runs = %d, want %d", got, n)
	}
}

// TestSubmitCompactsProblem: a submission that hands over no decoded
// problem is stored compact, so an indented problem cannot put a line
// break into a WAL line and make the store unreadable, and bytes that are
// not one JSON value are refused with nothing recorded.
func TestSubmitCompactsProblem(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Metrics: obs.NewRegistry(), Run: okRun(nil)})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit("HDLTS", "h-indented", json.RawMessage("{\n  \"procs\": 3\n}"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, Done)
	for i, bad := range []string{"", `{"procs":`, `{} {}`, "nul"} {
		if _, err := m.SubmitTraced("HDLTS", fmt.Sprintf("h-bad%d", i), "", json.RawMessage(bad), nil); err == nil {
			t.Errorf("SubmitTraced(%q) admitted a problem that is not JSON", bad)
		}
	}
	if _, total := m.List("", 0, 10); total != 1 {
		t.Errorf("%d jobs recorded, want only the indented one", total)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	reopened := newTestManager(t, Config{Dir: dir, Run: okRun(nil)})
	got, err := reopened.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Problem) != `{"procs":3}` || got.State != Done {
		t.Errorf("recovered job: problem %q, state %s; want {\"procs\":3}, done", got.Problem, got.State)
	}
	if _, total := reopened.List("", 0, 10); total != 1 {
		t.Errorf("%d jobs recovered, want 1", total)
	}
}
