package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"hdlts/internal/core"
	"hdlts/internal/durable"
	"hdlts/internal/gen"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/server"
)

// Suite returns the canonical benchmark suite. Names are stable across
// releases: a renamed benchmark breaks the trajectory (it shows up as
// missing/new in every future diff), so rename only with cause.
func Suite() []Bench {
	// Hot-gated benches pin their iteration count ("Nx") rather than
	// inheriting the time-based default: testing.Benchmark carries a small
	// fixed allocation overhead per run, and amortising it over a
	// run-dependent N makes allocs/op wobble by ±1 between a full baseline
	// and a quick candidate. Identical N on both sides keeps the strict
	// zero-increase gate exact.
	return []Bench{
		{Name: "solver/hdlts/v1k", HotPath: true, Quick: true, Benchtime: "100x", F: solverBench("hdlts", 1000)},
		{Name: "solver/hdlts/v10k", HotPath: true, Quick: true, Benchtime: "10x", F: solverBench("hdlts", 10000)},
		{Name: "solver/hdlts/v10k_steady", HotPath: true, Quick: true, Benchtime: "10x", F: steadyBench(10000)},
		{Name: "solver/hdlts/v100k", HotPath: true, Quick: true, Benchtime: "1x", F: solverBench("hdlts", 100000)},
		{Name: "solver/hdlts/v1m", HotPath: true, Benchtime: "1x", F: solverBench("hdlts", 1000000)},
		// Not hot-gated until a trajectory epoch records it.
		{Name: "solver/hdlts/v1k_traced", Quick: true, F: tracedBench(1000)},
		{Name: "solver/heft/v1k", HotPath: true, Quick: true, Benchtime: "100x", F: solverBench("heft", 1000)},
		{Name: "solver/heft/v10k", HotPath: true, Benchtime: "10x", F: solverBench("heft", 10000)},
		{Name: "solver/cpop/v1k", HotPath: true, Quick: true, Benchtime: "100x", F: solverBench("cpop", 1000)},
		{Name: "solver/pets/v1k", HotPath: true, Quick: true, Benchtime: "100x", F: solverBench("pets", 1000)},
		{Name: "solver/peft/v1k", HotPath: true, Quick: true, Benchtime: "100x", F: solverBench("peft", 1000)},
		// Codec layers, named after the server spans they time
		// (schedule.decode, the canonicalise half of schedule.hash,
		// schedule.encode). Hot-gated: a quiet return to reflection
		// shows up as an allocs/op increase.
		{Name: "layer/decode/v100", HotPath: true, Quick: true, Benchtime: "200x", F: layerBench(100, decodeLayer)},
		{Name: "layer/decode/v1k", HotPath: true, Quick: true, Benchtime: "50x", F: layerBench(1000, decodeLayer)},
		{Name: "layer/canonical/v100", HotPath: true, Quick: true, Benchtime: "200x", F: layerBench(100, canonicalLayer)},
		{Name: "layer/canonical/v1k", HotPath: true, Quick: true, Benchtime: "50x", F: layerBench(1000, canonicalLayer)},
		{Name: "layer/encode/v1k", HotPath: true, Quick: true, Benchtime: "50x", F: layerBench(1000, encodeLayer)},
		// Not hot-gated: the sync.Pool buffers behind canonicalisation are
		// cached per P, so allocs/op varies with goroutine migration unless
		// the bench pins GOMAXPROCS as layerBench does.
		{Name: "hash/canonical/v1k", Quick: true, F: hashBench(1000)},
		{Name: "wal/submit_fsync", Quick: true, F: walBench},
		// Not hot-gated until a trajectory epoch records it.
		{Name: "wal/replay/jobs", Quick: true, F: replayBench},
		{Name: "service/schedule_roundtrip", Quick: true, F: serviceBench},
	}
}

// Benchmark problems are deterministic (fixed seed per size) and cached:
// the trajectory must measure the solvers, not the generator, and two runs
// of the suite must schedule byte-identical inputs.
var (
	problemMu sync.Mutex
	problems  = map[int]*sched.Problem{}
)

func problem(v int) *sched.Problem {
	problemMu.Lock()
	defer problemMu.Unlock()
	if pr, ok := problems[v]; ok {
		return pr
	}
	rng := rand.New(rand.NewSource(7))
	pr, err := gen.Random(gen.Params{V: v, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
	if err != nil {
		panic(fmt.Sprintf("perf: generate %d-task problem: %v", v, err))
	}
	problems[v] = pr
	return pr
}

// solverBench times one registry algorithm over the fixed problem of the
// given size. One untimed warm-up run pays the one-time costs (metric
// series creation, lazily sized caches) so allocs/op measures steady state.
func solverBench(name string, v int) func(*testing.B) {
	return func(b *testing.B) {
		pr := problem(v)
		alg := registry.MustGet(name)
		if _, err := alg.Schedule(pr); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := alg.Schedule(pr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// steadyBench times the allocation-free steady state of an HDLTS solve
// stream: ScheduleInto reuses the previous schedule's storage and the
// pooled arena, so after the warm-up solve the loop body performs zero heap
// allocations — the hot-gate pins allocs/op at 0, turning any regression
// into a blocking diff.
func steadyBench(v int) func(*testing.B) {
	return func(b *testing.B) {
		pr := problem(v)
		h := core.New()
		s, err := h.Schedule(pr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s, err = h.ScheduleInto(pr, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// tracedBench times an HDLTS solve traced the way the server traces a
// request: each solve starts its own trace in a TraceStore and attaches the
// store's tracer under the algorithm's name, so the solve's decision record
// lands in the trace ring.
func tracedBench(v int) func(*testing.B) {
	return func(b *testing.B) {
		pr := problem(v)
		alg := registry.MustGet("hdlts")
		ts := obs.NewTraceStore(8, 1)
		solve := func(i int) error {
			id := "bench-" + strconv.Itoa(i)
			ts.Start(id)
			_, err := alg.Schedule(pr.WithTracer(obs.Named(ts.Tracer(id), alg.Name())))
			return err
		}
		if err := solve(-1); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := solve(i); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// hashBench times the content addressing the job subsystem keys its cache
// and coalescing on: canonical serialisation plus sha256.
func hashBench(v int) func(*testing.B) {
	return func(b *testing.B) {
		pr := problem(v)
		if _, err := server.CanonicalHash("HDLTS", pr); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := server.CanonicalHash("HDLTS", pr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// A codec layer is set up once per problem and then timed; the returned
// op must not retain anything between calls.
type codecLayer func(b *testing.B, pr *sched.Problem) (op func() error)

func decodeLayer(b *testing.B, pr *sched.Problem) func() error {
	canon, err := server.CanonicalProblemJSON(pr)
	if err != nil {
		b.Fatal(err)
	}
	return func() error {
		_, err := sched.ReadProblemJSON(bytes.NewReader(canon))
		return err
	}
}

func canonicalLayer(_ *testing.B, pr *sched.Problem) func() error {
	return func() error {
		_, err := server.CanonicalProblemJSON(pr)
		return err
	}
}

func encodeLayer(b *testing.B, pr *sched.Problem) func() error {
	sc, err := registry.MustGet("hdlts").Schedule(pr)
	if err != nil {
		b.Fatal(err)
	}
	return func() error { return sc.WriteScheduleJSON(io.Discard, "HDLTS") }
}

// layerBench times one codec layer over the fixed problem of the given
// size. GOMAXPROCS is pinned to 1 and GC disabled while it runs: the
// codec's sync.Pool buffers are cached per P, and a goroutine migrating
// between Ps (or a GC emptying the pool) would otherwise make allocs/op
// vary between runs and trip the strict hot-path gate.
func layerBench(v int, layer codecLayer) func(*testing.B) {
	return func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		op := layer(b, problem(v))
		if err := op(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// walBench times durable job admission: each Submit appends one record to
// the write-ahead log and fsyncs before returning, so ns/op is dominated
// by the WAL append+fsync path.
func walBench(b *testing.B) {
	dir, err := os.MkdirTemp("", "hdltsbench-wal-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	done := json.RawMessage(`{"ok":true}`)
	pool := jobs.NewPool(1, b.N+1, nil)
	defer pool.Close()
	m, err := jobs.Open(jobs.Config{
		Dir:       dir,
		Pool:      pool,
		CacheSize: 1,
		Metrics:   obs.NewRegistry(),
		Run: func(context.Context, string, json.RawMessage) (json.RawMessage, error) {
			return done, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			b.Error(err)
		}
	}()
	payload := json.RawMessage(`{"bench":true}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unique hashes defeat the result cache and in-flight coalescing:
		// every iteration must take the durable path.
		if _, err := m.Submit("hdlts", fmt.Sprintf("bench-%d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// replayJobs is how many jobs the wal/replay/jobs store holds.
const replayJobs = 300

// replaySeed is the wal/replay/jobs store's WAL, written once per process
// like the cached problems: testing.Benchmark calls a bench body several
// times, and seeding costs more than the replays it times.
var replaySeed struct {
	once sync.Once
	wal  []byte
	err  error
}

// replayBench times jobs.Open on a fresh copy of a seeded job store: the
// WAL replay a restarted daemon performs before it serves.
func replayBench(b *testing.B) {
	replaySeed.once.Do(func() {
		dir, err := os.MkdirTemp("", "hdltsbench-seed-")
		if err != nil {
			replaySeed.err = err
			return
		}
		defer os.RemoveAll(dir)
		replaySeed.wal, replaySeed.err = seedJobWAL(dir)
	})
	if replaySeed.err != nil {
		b.Fatal(replaySeed.err)
	}
	root, err := os.MkdirTemp("", "hdltsbench-replay-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(root)
	refuse := func(context.Context, string, json.RawMessage) (json.RawMessage, error) {
		return nil, errors.New("the replay bench runs no jobs")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(root, strconv.Itoa(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), replaySeed.wal, 0o644); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m, err := jobs.Open(jobs.Config{Dir: dir, Metrics: obs.NewRegistry(), Run: refuse})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = m.Close(ctx)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// seedJobWAL writes a job store in dir and returns its WAL: replayJobs
// distinct seeded V=100 problems, each with the queued, running and done
// put lines a solved /v1/jobs submission leaves, its result the
// /v1/schedule answer for the problem.
func seedJobWAL(dir string) ([]byte, error) {
	srv, err := server.New(server.Config{Metrics: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	rng := rand.New(rand.NewSource(11))
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var lines []*jobs.Job
	for i := 0; i < replayJobs; i++ {
		pr, err := gen.Random(gen.Params{V: 100, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
		if err != nil {
			return nil, err
		}
		canon, err := server.CanonicalProblemJSON(pr)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.ScheduleRequest{Algorithm: "hdlts", Problem: canon})
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("seed problem %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		hash, err := server.CanonicalHash("HDLTS", pr)
		if err != nil {
			return nil, err
		}
		queued := jobs.Job{ID: durable.NewID("j-"), Algorithm: "HDLTS", Hash: hash, TraceID: fmt.Sprintf("%016x", rng.Uint64()),
			Problem: canon, State: jobs.Queued, MaxAttempts: 3, Seq: uint64(i), SubmittedAt: at}
		running := queued
		running.State, running.Attempts, running.StartedAt = jobs.Running, 1, at.Add(time.Millisecond)
		done := running
		done.State, done.Result, done.FinishedAt = jobs.Done, rec.Body.Bytes(), at.Add(2*time.Millisecond)
		lines = append(lines, &queued, &running, &done)
		at = at.Add(10 * time.Millisecond)
	}
	var mu sync.Mutex
	st, _, err := durable.Open[*jobs.Job](durable.Config{Dir: dir, Key: durable.JobKey}, &mu)
	if err != nil {
		return nil, err
	}
	mu.Lock()
	for _, j := range lines {
		st.Put(j)
	}
	mu.Unlock()
	if err := st.Close(); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(dir, "wal.jsonl"))
}

// serviceBench times one synchronous POST /v1/schedule round trip through
// the full handler stack: decode, validate, queue, solve, encode.
func serviceBench(b *testing.B) {
	srv, err := server.New(server.Config{Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	canon, err := server.CanonicalProblemJSON(problem(100))
	if err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(server.ScheduleRequest{Algorithm: "heft", Problem: canon})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("POST /v1/schedule: status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
