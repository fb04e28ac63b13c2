package jobs

import (
	"bytes"
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
// on a Pool worker and must be safe for concurrent use. ctx carries
// the job's trace ID (obs.TraceIDFrom) so the executing layer can record
// spans and decision events against the submitting request — including
// re-runs of jobs recovered after a crash. For a job this process
// admitted, ctx also carries what its submitter handed over with the
// problem (Decoded), so the run need not parse the bytes again; a
// recovered job has only the bytes.
type RunFunc func(ctx context.Context, algorithm string, problem json.RawMessage) (json.RawMessage, error)

// decodedKey keys the handed-over value in a run's context.
type decodedKey struct{}

// Decoded returns the value the submitter handed over with the job ctx
// runs (SubmitTraced's decoded argument), or nil: a job recovered from
// the store, or submitted without one. The jobs package never reads it
// and never persists it; it lives only until the attempt's claim.
func Decoded(ctx context.Context) any { return ctx.Value(decodedKey{}) }

// Config tunes a Manager. The zero value (plus a Run function) works:
// memory-only store, a private pool of GOMAXPROCS workers, three attempts
// per job, one-hour retention of finished jobs.
type Config struct {
	// Dir is the durable store directory; empty means memory-only (jobs do
	// not survive a restart).
	Dir string
	// MaxAttempts bounds the attempts a job may use across restarts
	// (default 3); a solve that returns an error fails the job at once.
	MaxAttempts int
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
	// Pool runs the attempts; when its queue is full Submit returns
	// ErrSaturated. The server wires in its solve pool; nil builds a
	// private one (GOMAXPROCS workers, 256 queued).
	Pool *Pool
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
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

// Manager owns the job table (a durable store) and the result cache, and
// runs attempts on a Pool. All exported methods are safe for concurrent
// use.
type Manager struct {
	cfg Config

	// mu is the table lock: it guards the store's records and the indexes
	// below. Every transition stages its WAL line under mu; the store's
	// Flush writes them after mu is released.
	mu     sync.Mutex
	store  *durable.Store[*Job]
	byHash map[string]string // hash → active (queued|running) job ID
	cache  *lru
	closed bool // guarded by mu; once set, no attempt is claimed

	pool    *Pool
	ownPool bool // built by Open, so Close retires it

	// baseCtx is the process-lifetime root job executions derive from;
	// Close cancels it once the running attempts have committed.
	baseCtx context.Context
	cancel  context.CancelFunc

	stop chan struct{}
	wg   sync.WaitGroup // the GC loop, the recovery feeder, running attempts

	now func() time.Time // test hook

	states    map[State]*obs.Gauge
	cacheHits *obs.Counter
	cacheMiss *obs.Counter
	coalesced *obs.Counter
	expired   *obs.Counter
	walErrors *obs.Counter
}

// Open builds a Manager from cfg, recovering any durable state from
// cfg.Dir: done/failed/cancelled jobs become queryable again (done results
// re-seed the cache), and queued or running jobs — running means the
// previous process died mid-execution — queue for the pool again, unless
// restarts have used up their attempts. Open does not wait for pool
// capacity: recovered jobs are fed to the pool in the background.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Run == nil {
		return nil, fmt.Errorf("jobs: Config.Run is required")
	}
	m := &Manager{
		cfg:       cfg,
		byHash:    make(map[string]string),
		cache:     newLRU(cfg.CacheSize),
		stop:      make(chan struct{}),
		now:       time.Now,
		states:    make(map[State]*obs.Gauge, len(durable.States)),
		cacheHits: cfg.Metrics.Counter(metricJobsCacheHits),
		cacheMiss: cfg.Metrics.Counter(metricJobsCacheMisses),
		coalesced: cfg.Metrics.Counter(metricJobsCoalesced),
		expired:   cfg.Metrics.Counter(metricJobsExpired),
		walErrors: cfg.Metrics.Counter(metricJobsWALErrors),
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
	m.pool, m.ownPool = cfg.Pool, cfg.Pool == nil
	if m.ownPool {
		m.pool = NewPool(runtime.GOMAXPROCS(0), 256, nil)
	}
	pending := m.adopt(recovered)
	m.store.Flush()
	m.wg.Add(2)
	go m.feed(pending)
	go m.gcLoop()
	return m, nil
}

// adopt takes over the recovered jobs (in submission order): rebuilds
// indexes and gauges, re-seeds the cache from done results, requeues
// unfinished work, fails unfinished jobs whose attempts restarts have
// used up, and persists those transitions so a second crash sees
// consistent state. Returns the IDs to feed to the pool.
func (m *Manager) adopt(recovered []*Job) []string {
	var pending []string
	for _, j := range recovered {
		switch {
		case j.State.Terminal():
		case j.Attempts > 0 && j.Attempts >= j.MaxAttempts:
			// Every attempt died with its process (a solve that crashes
			// the daemon would otherwise re-run on every restart).
			j.State = Failed
			j.Error = fmt.Sprintf("recovery: %d of %d attempts interrupted by restarts",
				j.Attempts, j.MaxAttempts)
			j.FinishedAt = m.now()
			m.store.Put(j)
		case j.State == Running:
			j.State = Queued
			m.store.Put(j)
		}
		m.states[j.State].Inc()
		switch {
		case j.State == Queued:
			m.byHash[j.Hash] = j.ID
			pending = append(pending, j.ID)
		case j.State == Done && len(j.Result) > 0:
			m.cache.put(j.Hash, j.Result)
		}
	}
	return pending
}

// feed hands recovered jobs to the pool in submission order as capacity
// frees up: they were admitted in a previous life, so they wait for room
// rather than being refused. On Close the rest stay queued in the store
// for the next Open.
func (m *Manager) feed(ids []string) {
	defer m.wg.Done()
	for _, id := range ids {
		if !m.pool.Submit(m.stop, m.attempt(id, nil)) {
			return
		}
	}
}

// Submit admits one job with no trace correlation and nothing handed
// over; see SubmitTraced.
func (m *Manager) Submit(algorithm, hash string, problem json.RawMessage) (*Job, error) {
	return m.SubmitTraced(algorithm, hash, "", problem, nil)
}

// SubmitTraced admits one job stamped with the submitting request's trace
// ID. In order of preference it answers from the result cache (a new job
// born done, CacheHit set), coalesces onto an active job with the same
// hash (the returned job carries that job's ID — and the first submitter's
// trace ID), or admits a fresh job to the pool. ErrSaturated means the
// pool's queue is full; ErrClosed means the manager has shut down.
//
// decoded, when non-nil, is an in-memory form of problem that the run of
// a fresh job finds in its context (Decoded). It is never persisted: a
// cache hit or a coalesced submission drops it, and a job recovered after
// a restart runs from problem alone, so the RunFunc must get the same
// answer from either.
//
// The WAL writes problem as it is, so its bytes must be one compact JSON
// value. A submitter that hands over decoded vouches for that: it
// rendered problem from decoded. Without decoded, problem goes through
// json.Compact first, and a problem that is not one JSON value is refused
// with an error and nothing recorded.
func (m *Manager) SubmitTraced(algorithm, hash, traceID string, problem json.RawMessage, decoded any) (*Job, error) {
	if decoded == nil {
		var buf bytes.Buffer
		if err := json.Compact(&buf, problem); err != nil {
			return nil, fmt.Errorf("jobs: problem is not one JSON value: %w", err)
		}
		problem = buf.Bytes()
	}
	j, err := m.submitLocked(algorithm, hash, traceID, problem, decoded)
	// Group commit: the flush after releasing the job-table lock makes the
	// admission durable before Submit returns, batching with any records
	// staged by concurrent submitters.
	m.store.Flush()
	return j, err
}

func (m *Manager) submitLocked(algorithm, hash, traceID string, problem json.RawMessage, decoded any) (*Job, error) {
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
	if !m.pool.TrySubmit(m.attempt(j.ID, decoded)) {
		return nil, ErrSaturated
	}
	m.byHash[hash] = j.ID
	m.states[Queued].Inc()
	m.store.Put(j)
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
// jobs are marked so the attempt discards the result when it completes
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
		m.patch(j)
	case j.State == Running:
		j.CancelRequested = true
		m.patch(j)
	default:
		return nil, ErrFinished
	}
	return j.clone(), nil
}

// Close stops intake, the GC and the recovery feeder, and waits — bounded
// by ctx — for running attempts to commit. No queued job starts after
// Close: it stays queued in the store for the next Open with the same Dir.
// A private pool is retired; a wired one is left to its owner.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
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
	if m.ownPool {
		m.pool.Close()
	}
	return m.store.Close()
}

// setState moves j between states, keeping the per-state gauges in step
// (caller holds mu).
func (m *Manager) setState(j *Job, s State) {
	m.states[j.State].Dec()
	m.states[s].Inc()
	j.State = s
}

// attempt returns the pool func that runs job id once: claim it, run the
// RunFunc unlocked, then commit the outcome. decoded rides along to the
// claim, which hands it to the run's context or, when the job is no longer
// queued, drops it.
func (m *Manager) attempt(id string, decoded any) func() {
	return func() {
		algorithm, problem, ctx, ok := m.claimJob(id)
		if !ok {
			return
		}
		if decoded != nil {
			ctx = context.WithValue(ctx, decodedKey{}, decoded)
		}
		defer m.wg.Done()
		// The claim is durable before the run: recovery counts it against
		// max_attempts, which is what bounds how often a job that crashes
		// the process is re-run (TestRecoveryBoundsCrashReruns).
		m.store.Flush()
		result, err := m.run(ctx, algorithm, problem)
		m.finishJob(id, result, err)
		m.store.Flush()
	}
}

// run calls Config.Run, turning a panic into the attempt's error so that
// the job fails instead of the pool worker, and with it the process.
func (m *Manager) run(ctx context.Context, algorithm string, problem json.RawMessage) (result json.RawMessage, err error) {
	defer func() {
		if p := recover(); p != nil {
			result, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return m.cfg.Run(ctx, algorithm, problem)
}

// claimJob flips a queued job to running and returns what the attempt
// needs to execute it; ok is false if the job was cancelled (or GC'd)
// while waiting in the queue, or the manager has closed. Close waits for
// a claimed attempt: it counts in wg until it commits.
func (m *Manager) claimJob(id string) (algorithm string, problem json.RawMessage, ctx context.Context, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, found := m.store.Get(id)
	if m.closed || !found || j.State != Queued {
		return "", nil, nil, false
	}
	m.wg.Add(1)
	m.setState(j, Running)
	j.Attempts++
	j.StartedAt = m.now()
	m.patch(j)
	// The execution context carries the job's trace ID — the persisted
	// correlation with the submitting request — so re-runs after a crash
	// trace under the original ID.
	return j.Algorithm, j.Problem, obs.WithTraceID(m.baseCtx, j.TraceID), true
}

// finishJob commits one attempt's outcome: done (caching the result),
// failed on an error, or cancelled if a cancel arrived while running.
func (m *Manager) finishJob(id string, result json.RawMessage, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.store.Get(id)
	if !ok {
		return
	}
	switch {
	case j.CancelRequested:
		m.setState(j, Cancelled)
	case err != nil:
		j.Error = err.Error()
		m.setState(j, Failed)
	default:
		j.Result = result
		m.setState(j, Done)
		m.cache.put(j.Hash, result)
	}
	j.FinishedAt = m.now()
	delete(m.byHash, j.Hash)
	m.patch(j)
}

// patch stages j's transition as a patch line: the whole job but its
// problem, which only the job's first line carries (caller holds mu).
// Every change to a job is staged in the critical section that makes it.
func (m *Manager) patch(j *Job) {
	p := *j
	p.Problem = nil
	m.store.Patch(j, &p)
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
