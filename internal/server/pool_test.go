package server

// The server's one solve pool is a jobs.Pool: New builds it and wires it
// into the job manager. These tests hold the pool's own contract and the
// behaviour of the two endpoints sharing it.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdlts/internal/jobs"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
)

func TestPoolRunsEveryAdmittedJob(t *testing.T) {
	p := jobs.NewPool(4, 16, nil)
	var ran atomic.Int64
	admitted := 0
	for i := 0; i < 100; i++ {
		if p.TrySubmit(func() { ran.Add(1) }) {
			admitted++
		}
	}
	p.Close()
	if got := int(ran.Load()); got != admitted {
		t.Errorf("ran %d of %d admitted jobs", got, admitted)
	}
}

func TestPoolRefusesWhenSaturated(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	p := jobs.NewPool(1, 1, nil)
	if !p.TrySubmit(func() { started <- struct{}{}; <-block }) {
		t.Fatal("first job refused")
	}
	<-started // worker busy; queue empty
	if !p.TrySubmit(func() { <-block }) {
		t.Fatal("second job should occupy the queue slot")
	}
	if p.TrySubmit(func() {}) {
		t.Error("third job admitted past a full queue")
	}
	close(block)
	p.Close()
}

func TestPoolCloseDrainsBacklog(t *testing.T) {
	p := jobs.NewPool(1, 8, nil)
	var order []int
	var mu sync.Mutex
	for i := 0; i < 5; i++ {
		i := i
		if !p.TrySubmit(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}) {
			t.Fatalf("job %d refused", i)
		}
	}
	p.Close() // must not return before the backlog ran
	if len(order) != 5 {
		t.Fatalf("close returned with %d of 5 jobs run", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Errorf("FIFO violated: position %d ran job %d", i, got)
		}
	}
}

func TestPoolSubmitAfterCloseRefused(t *testing.T) {
	p := jobs.NewPool(1, 1, nil)
	p.Close()
	if p.TrySubmit(func() {}) {
		t.Error("submit accepted after close")
	}
	p.Close() // idempotent
}

func TestPoolDepthGauge(t *testing.T) {
	depth := obs.NewRegistry().Gauge("depth")
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	p := jobs.NewPool(1, 4, depth)
	p.TrySubmit(func() { started <- struct{}{}; <-block })
	<-started
	for i := 0; i < 3; i++ {
		p.TrySubmit(func() {})
	}
	if got := depth.Value(); got != 3 {
		t.Errorf("depth = %g with 3 queued jobs, want 3", got)
	}
	close(block)
	p.Close()
	if got := depth.Value(); got != 0 {
		t.Errorf("depth = %g after drain, want 0", got)
	}
}

// TestSharedPoolAdmission: /v1/schedule and /v1/jobs draw on one pool. A
// blocked schedule solve holds the only worker and a job fills the only
// queue slot; the next request of either kind is refused the same way.
func TestSharedPoolAdmission(t *testing.T) {
	blk := &blockingAlg{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Lookup: blockingLookup(blk)})
	problem := problemJSON(t)
	held := make(chan int, 1)
	go func() { held <- doSchedule(srv, ScheduleRequest{Algorithm: "block", Problem: problem}).Code }()
	<-blk.started
	queued, rec := submitJob(t, srv, "heft", problem)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("job into the free queue slot = %d, want 202", rec.Code)
	}

	refused := map[string]*http.Response{
		"/v1/jobs": doJSON(srv, http.MethodPost, "/v1/jobs",
			JobSubmitRequest{Algorithm: "cpop", Problem: problem}).Result(),
		"/v1/schedule": postSchedule(t, srv, ScheduleRequest{Algorithm: "cpop", Problem: problem}).Result(),
	}
	for path, resp := range refused {
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s on a full pool = %d, want 429", path, resp.StatusCode)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Errorf("%s Retry-After = %q, want an integer >= 1", path, resp.Header.Get("Retry-After"))
		}
	}

	close(blk.release)
	if code := <-held; code != http.StatusOK {
		t.Errorf("held schedule request = %d, want 200", code)
	}
	waitJobState(t, srv, queued.ID, "done")
}

// TestShutdownLeavesQueuedJobQueued: at Shutdown the running attempt
// commits, the queued job is never started while the pool drains, and a
// daemon reopened on the same store finishes it.
func TestShutdownLeavesQueuedJobQueued(t *testing.T) {
	dir := t.TempDir()
	blk := &blockingAlg{started: make(chan struct{}, 1), release: make(chan struct{})}
	var runs atomic.Int64 // solves of every algorithm but the blocking one
	lookup := func(name string) (sched.Algorithm, error) {
		if name == "block" || name == "HDLTS" {
			return blk, nil
		}
		alg, err := registry.Get(name)
		return countingAlg{alg, &runs}, err
	}
	srv, err := New(Config{Metrics: obs.NewRegistry(), Workers: 1, QueueDepth: 1,
		Lookup: lookup, Jobs: jobs.Config{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	problem := problemJSON(t)
	running, _ := submitJob(t, srv, "block", problem)
	<-blk.started
	queued, _ := submitJob(t, srv, "heft", problem)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(ctx) }()
	// Once the manager is closed a probe submit says so; before, the full
	// pool refuses it without persisting anything.
	waitFor(t, 5*time.Second, func() bool {
		_, err := srv.Jobs().Submit("HEFT", "probe", problem)
		return errors.Is(err, jobs.ErrClosed)
	})
	close(blk.release)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("%d queued jobs started during shutdown, want 0", n)
	}
	if j, err := srv.Jobs().Get(queued.ID); err != nil || j.State != jobs.Queued {
		t.Errorf("queued job after Shutdown = %+v, %v; want queued", j, err)
	}

	reopened := newTestServer(t, Config{Lookup: lookup, Jobs: jobs.Config{Dir: dir}})
	for _, id := range []string{running.ID, queued.ID} {
		if v := waitJobState(t, reopened, id, "done"); v.Attempts != 1 {
			t.Errorf("job %s finished after %d attempts, want 1", id, v.Attempts)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("runs after reopening = %d, want 1", n)
	}
}
