package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hdlts/internal/durable"
	"hdlts/internal/obs"
)

// Metric series registered by this package.
const (
	metricJobsQueueDepth  = "hdltsd_jobs_queue_depth"
	metricJobsRetries     = "hdltsd_jobs_retries_total"
	metricJobsCacheHits   = "hdltsd_jobs_cache_hits_total"
	metricJobsCacheMisses = "hdltsd_jobs_cache_misses_total"
	metricJobsCoalesced   = "hdltsd_jobs_coalesced_total"
	metricJobsExpired     = "hdltsd_jobs_expired_total"
	metricJobsWALErrors   = "hdltsd_jobs_wal_errors_total"
	metricJobsState       = "hdltsd_jobs_state"
	metricJobsWALFsync    = "hdltsd_jobs_wal_fsync_seconds"
)

// RunFunc executes one job: the algorithm's canonical registry name plus
// the canonically serialised problem in, opaque result JSON out. It runs
// on a worker goroutine and must be safe for concurrent use. ctx carries
// the job's trace ID (obs.TraceIDFrom) so the executing layer can record
// spans and decision events against the submitting request — including
// re-runs of jobs recovered after a crash.
type RunFunc func(ctx context.Context, algorithm string, problem json.RawMessage) (json.RawMessage, error)

// Config tunes a Manager. The zero value (plus a Run function) works:
// memory-only store, GOMAXPROCS workers, three attempts per job, one-hour
// retention of finished jobs.
type Config struct {
	// Dir is the durable store directory; empty means memory-only (jobs do
	// not survive a restart).
	Dir string
	// Workers is the number of concurrent job executors (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running; beyond it Submit
	// returns ErrSaturated (default 256).
	QueueDepth int
	// MaxAttempts bounds executions per job before it fails (default 3).
	MaxAttempts int
	// RetryBackoff is the first retry delay; it doubles per attempt
	// (default 100ms).
	RetryBackoff time.Duration
	// TTL is how long finished jobs remain queryable before the garbage
	// collector drops them (default 1h).
	TTL time.Duration
	// GCInterval is how often the collector scans (default 1m).
	GCInterval time.Duration
	// CacheSize is the result cache capacity in entries (default 1024).
	CacheSize int
	// Metrics receives the hdltsd_jobs_* series (default obs.Default()).
	Metrics *obs.Registry
	// Run executes one job; required.
	Run RunFunc
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.TTL <= 0 {
		c.TTL = time.Hour
	}
	if c.GCInterval <= 0 {
		c.GCInterval = time.Minute
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	return c
}

// Manager owns the job table (a durable store), the worker pool, and the
// result cache. All exported methods are safe for concurrent use.
type Manager struct {
	cfg Config

	// mu is the table lock: it guards the store's records and the indexes
	// below. Every transition stages its WAL line under mu; the store's
	// Flush writes them after mu is released.
	mu     sync.Mutex
	store  *durable.Store[*Job]
	byHash map[string]string // hash → active (queued|running) job ID
	cache  *lru
	closed bool
	timers map[*time.Timer]struct{} // pending retry re-enqueues

	// baseCtx is the process-lifetime root job executions derive from;
	// Close cancels it once the workers have drained.
	baseCtx context.Context
	cancel  context.CancelFunc

	queue chan string
	stop  chan struct{}
	wg    sync.WaitGroup

	now func() time.Time // test hook

	queueDepth *obs.Gauge
	states     map[State]*obs.Gauge
	retries    *obs.Counter
	cacheHits  *obs.Counter
	cacheMiss  *obs.Counter
	coalesced  *obs.Counter
	expired    *obs.Counter
	walErrors  *obs.Counter
}

// Open builds a Manager from cfg, recovering any durable state from
// cfg.Dir: done/failed/cancelled jobs become queryable again (done results
// re-seed the cache), and queued or running jobs — running means the
// previous process died mid-execution — are re-enqueued.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Run == nil {
		return nil, fmt.Errorf("jobs: Config.Run is required")
	}
	m := &Manager{
		cfg:        cfg,
		byHash:     make(map[string]string),
		cache:      newLRU(cfg.CacheSize),
		timers:     make(map[*time.Timer]struct{}),
		stop:       make(chan struct{}),
		now:        time.Now,
		queueDepth: cfg.Metrics.Gauge(metricJobsQueueDepth),
		states:     make(map[State]*obs.Gauge, len(durable.States)),
		retries:    cfg.Metrics.Counter(metricJobsRetries),
		cacheHits:  cfg.Metrics.Counter(metricJobsCacheHits),
		cacheMiss:  cfg.Metrics.Counter(metricJobsCacheMisses),
		coalesced:  cfg.Metrics.Counter(metricJobsCoalesced),
		expired:    cfg.Metrics.Counter(metricJobsExpired),
		walErrors:  cfg.Metrics.Counter(metricJobsWALErrors),
	}
	for _, s := range durable.States {
		m.states[s] = cfg.Metrics.Gauge(metricJobsState, "state", string(s))
	}
	// Job executions outlive the HTTP requests that submitted them (and,
	// after a crash, the process that did), so they hang off a root owned
	// by the Manager rather than any request context.
	//lint:hdltsvet-ignore ctxflow process-lifetime root: job executions outlive their submitting requests
	m.baseCtx, m.cancel = context.WithCancel(context.Background())
	var fsync *obs.Histogram
	if cfg.Dir != "" {
		cfg.Metrics.SetBuckets(metricJobsWALFsync, durable.FsyncBuckets)
		fsync = cfg.Metrics.Histogram(metricJobsWALFsync)
	}
	store, recovered, err := durable.Open[*Job](durable.Config{
		Dir: cfg.Dir, Key: durable.JobKey, Fsync: fsync, Errors: m.walErrors,
	}, &m.mu)
	if err != nil {
		return nil, err
	}
	m.store = store
	pending := m.adopt(recovered)
	m.store.Flush()
	capacity := cfg.QueueDepth
	if len(pending) > capacity {
		capacity = len(pending)
	}
	m.queue = make(chan string, capacity)
	for _, j := range pending {
		m.queue <- j.ID
		m.queueDepth.Inc()
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	m.wg.Add(1)
	go m.gcLoop()
	return m, nil
}

// adopt takes over the recovered jobs (in submission order): rebuilds
// indexes and gauges, re-seeds the cache from done results, requeues
// unfinished work, and persists the running→queued demotions so a second
// crash sees consistent state. Returns the jobs to enqueue.
func (m *Manager) adopt(recovered []*Job) []*Job {
	var pending []*Job
	for _, j := range recovered {
		if j.State == Running {
			j.State = Queued
			m.store.Put(j)
		}
		m.states[j.State].Inc()
		switch {
		case j.State == Queued:
			m.byHash[j.Hash] = j.ID
			pending = append(pending, j)
		case j.State == Done && len(j.Result) > 0:
			m.cache.put(j.Hash, j.Result)
		}
	}
	return pending
}

// Submit admits one job with no trace correlation; see SubmitTraced.
func (m *Manager) Submit(algorithm, hash string, problem json.RawMessage) (*Job, error) {
	return m.SubmitTraced(algorithm, hash, "", problem)
}

// SubmitTraced admits one job stamped with the submitting request's trace
// ID. In order of preference it answers from the result cache (a new job
// born done, CacheHit set), coalesces onto an active job with the same
// hash (the returned job carries that job's ID — and the first submitter's
// trace ID), or enqueues a fresh job. ErrSaturated means the queue is
// full; ErrClosed means the manager has shut down.
func (m *Manager) SubmitTraced(algorithm, hash, traceID string, problem json.RawMessage) (*Job, error) {
	j, err := m.submitLocked(algorithm, hash, traceID, problem)
	// Group commit: the flush after releasing the job-table lock makes the
	// admission durable before Submit returns, batching with any records
	// staged by concurrent submitters.
	m.store.Flush()
	return j, err
}

func (m *Manager) submitLocked(algorithm, hash, traceID string, problem json.RawMessage) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if id, ok := m.byHash[hash]; ok {
		if j, ok := m.store.Get(id); ok {
			m.coalesced.Inc()
			return j.clone(), nil
		}
	}
	now := m.now()
	if res, ok := m.cache.get(hash); ok {
		m.cacheHits.Inc()
		j := &Job{
			ID: durable.NewID("j-"), Algorithm: algorithm, Hash: hash, TraceID: traceID,
			State: Done, MaxAttempts: m.cfg.MaxAttempts, Result: res,
			CacheHit: true, Seq: m.store.NextSeq(),
			SubmittedAt: now, FinishedAt: now,
		}
		m.states[Done].Inc()
		m.store.Put(j)
		return j.clone(), nil
	}
	m.cacheMiss.Inc()
	j := &Job{
		ID: durable.NewID("j-"), Algorithm: algorithm, Hash: hash, TraceID: traceID,
		Problem: problem,
		State:   Queued, MaxAttempts: m.cfg.MaxAttempts, Seq: m.store.NextSeq(),
		SubmittedAt: now,
	}
	select {
	case m.queue <- j.ID:
	default:
		return nil, ErrSaturated
	}
	m.byHash[hash] = j.ID
	m.states[Queued].Inc()
	m.store.Put(j)
	m.queueDepth.Inc()
	return j.clone(), nil
}

// Get returns a copy of the job, or ErrNotFound.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.store.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	return j.clone(), nil
}

// List returns one page of jobs, newest submission first, plus the total
// match count. state "" matches every state; offset/limit paginate
// (limit <= 0 means no cap).
func (m *Manager) List(state State, offset, limit int) ([]*Job, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	matches := m.store.List(func(j *Job) bool { return state == "" || j.State == state })
	total := len(matches)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	matches = matches[offset:]
	if limit > 0 && len(matches) > limit {
		matches = matches[:limit]
	}
	page := make([]*Job, len(matches))
	for i, j := range matches {
		page[i] = j.clone()
	}
	return page, total
}

// Cancel stops a job: queued jobs flip to cancelled immediately; running
// jobs are marked so the worker discards the result when it completes
// (scheduling is not preempted mid-run). Terminal jobs return ErrFinished.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, err := m.cancelLocked(id)
	m.store.Flush()
	return j, err
}

func (m *Manager) cancelLocked(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.store.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	switch {
	case j.State == Queued:
		m.setState(j, Cancelled)
		j.FinishedAt = m.now()
		delete(m.byHash, j.Hash)
		m.store.Put(j)
	case j.State == Running:
		j.CancelRequested = true
		m.store.Put(j)
	default:
		return nil, ErrFinished
	}
	return j.clone(), nil
}

// Workers returns the configured worker count (Retry-After estimation).
func (m *Manager) Workers() int { return m.cfg.Workers }

// QueueCap returns the admission queue capacity.
func (m *Manager) QueueCap() int { return cap(m.queue) }

// QueueLen returns the instantaneous queue backlog.
func (m *Manager) QueueLen() int { return len(m.queue) }

// Close stops intake and the GC, cancels pending retry timers, and waits —
// bounded by ctx — for workers to finish their current job. Unfinished
// jobs stay queued/running in the store and are recovered by the next
// Open with the same Dir.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for t := range m.timers {
		t.Stop()
	}
	m.timers = map[*time.Timer]struct{}{}
	m.mu.Unlock()
	close(m.stop)

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.cancel()
		return fmt.Errorf("jobs: close: %w", ctx.Err())
	}
	m.cancel()
	return m.store.Close()
}

// setState moves j between states, keeping the per-state gauges in step
// (caller holds mu).
func (m *Manager) setState(j *Job, s State) {
	m.states[j.State].Dec()
	m.states[s].Inc()
	j.State = s
}

// worker consumes job IDs until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case id := <-m.queue:
			m.queueDepth.Dec()
			m.runJob(id)
		}
	}
}

// runJob executes one dequeued job through a full attempt: claim it,
// run the RunFunc unlocked, then commit the outcome — done (caching the
// result), a backoff retry, failed, or cancelled if a cancel arrived
// while running.
func (m *Manager) runJob(id string) {
	algorithm, problem, ctx, ok := m.claimJob(id)
	m.store.Flush()
	if !ok {
		return
	}
	result, err := m.cfg.Run(ctx, algorithm, problem)
	m.finishJob(id, result, err)
	m.store.Flush()
}

// claimJob flips a queued job to running and returns what the worker needs
// to execute it; ok is false if the job was cancelled (or GC'd) while
// waiting in the queue.
func (m *Manager) claimJob(id string) (algorithm string, problem json.RawMessage, ctx context.Context, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, found := m.store.Get(id)
	if !found || j.State != Queued {
		return "", nil, nil, false
	}
	m.setState(j, Running)
	j.Attempts++
	j.StartedAt = m.now()
	m.store.Put(j)
	// The execution context carries the job's trace ID — the persisted
	// correlation with the submitting request — so re-runs after a crash
	// trace under the original ID.
	return j.Algorithm, j.Problem, obs.WithTraceID(m.baseCtx, j.TraceID), true
}

// finishJob commits one attempt's outcome: done (caching the result), a
// backoff retry, failed, or cancelled if a cancel arrived while running.
func (m *Manager) finishJob(id string, result json.RawMessage, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.store.Get(id)
	if !ok {
		return
	}
	if j.CancelRequested {
		m.setState(j, Cancelled)
		j.FinishedAt = m.now()
		delete(m.byHash, j.Hash)
		m.store.Put(j)
		return
	}
	if err != nil {
		j.Error = err.Error()
		if j.Attempts < j.MaxAttempts && !m.closed {
			m.retries.Inc()
			m.setState(j, Queued)
			m.store.Put(j)
			m.requeueAfter(j.ID, m.backoff(j.Attempts))
			return
		}
		m.setState(j, Failed)
		j.FinishedAt = m.now()
		delete(m.byHash, j.Hash)
		m.store.Put(j)
		return
	}
	j.Result = result
	j.Error = ""
	m.setState(j, Done)
	j.FinishedAt = m.now()
	delete(m.byHash, j.Hash)
	m.cache.put(j.Hash, result)
	m.store.Put(j)
}

// backoff returns the exponential retry delay after the given number of
// consumed attempts: base, 2·base, 4·base, ...
func (m *Manager) backoff(attempts int) time.Duration {
	d := m.cfg.RetryBackoff
	for i := 1; i < attempts; i++ {
		d *= 2
	}
	return d
}

// requeueAfter re-enqueues id once the backoff elapses (caller holds mu).
// If the queue happens to be full at fire time, the timer re-arms.
func (m *Manager) requeueAfter(id string, d time.Duration) {
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(m.timers, t)
		if m.closed {
			return
		}
		select {
		case m.queue <- id:
			m.queueDepth.Inc()
		default:
			m.requeueAfter(id, d)
		}
	})
	m.timers[t] = struct{}{}
}

// gcLoop drops finished jobs older than TTL every GCInterval.
func (m *Manager) gcLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.GCInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.gc()
		}
	}
}

// gc removes terminal jobs whose FinishedAt is older than TTL. Their
// results may still live in the cache; only the job records expire.
func (m *Manager) gc() {
	m.gcLocked()
	m.store.Flush() // also compacts, now that the expired records are staged
}

func (m *Manager) gcLocked() {
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.now().Add(-m.cfg.TTL)
	expired := m.store.List(func(j *Job) bool {
		return j.State.Terminal() && !j.FinishedAt.IsZero() && j.FinishedAt.Before(cutoff)
	})
	for _, j := range expired {
		m.states[j.State].Dec()
		m.store.Delete(j.ID)
		m.expired.Inc()
	}
}
