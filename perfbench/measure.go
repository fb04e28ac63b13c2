package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hdlts/internal/server"
)

// opResult is what one closed-loop operation reports back to the loop.
type opResult struct {
	// submit is the time until the first reply (the admission reply for
	// asynchronous APIs; the whole answer for synchronous ones).
	submit time.Duration
	// latency is the time from send until the final answer.
	latency time.Duration
	// err is non-nil when the op failed: a refusal, a server error, or an
	// answer the oracle rejects.
	err error
}

// phase is one measured stretch of the closed loop.
type phase struct {
	attempted, failed int
	submit, latency   []float64 // milliseconds, successful ops only
	wall              time.Duration
	cpu               time.Duration
	allocBytes        uint64
	liveMiB           float64
	firstErr          error
}

func (p *phase) ops() int { return p.attempted - p.failed }

// errStop, returned by an op, ends the phase before that op: the workload
// has run out of inputs. The op is not counted.
var errStop = errors.New("inputs exhausted")

// runPhase drives op in a closed loop for d. The deadline is checked only
// before ops whose index is a multiple of stride, so a workload built from
// pairs or triples of ops always completes whole cycles.
//
// After heapAt ops (when heapAt > 0) the loop forces a collection and
// records the live heap, with the pause left out of the phase's wall and
// CPU time; a phase that never gets there records it at the end. Sampling
// after a fixed number of ops keeps the figure from tracking throughput on
// workloads whose retained state grows with every op. An op returning
// errStop ends the phase early.
func runPhase(d time.Duration, stride, heapAt int, next *int, op func(i int) opResult) *phase {
	p := &phase{liveMiB: -1}
	cpu0 := cpuTime()
	alloc0 := heapAllocs()
	start := time.Now()
	for {
		if *next%stride == 0 && time.Since(start) >= d {
			break
		}
		r := op(*next)
		if errors.Is(r.err, errStop) {
			break
		}
		*next++
		p.attempted++
		if r.err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = r.err
			}
		} else {
			p.submit = append(p.submit, ms(r.submit))
			p.latency = append(p.latency, ms(r.latency))
		}
		if p.attempted == heapAt {
			t, c := time.Now(), cpuTime()
			p.liveMiB = liveHeapMiB()
			start = start.Add(time.Since(t))
			cpu0 += cpuTime() - c
		}
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.allocBytes = heapAllocs() - alloc0
	if p.liveMiB < 0 {
		p.liveMiB = liveHeapMiB()
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is this process's user+system CPU time. RUSAGE_SELF excludes
// child processes such as the shell each workflow step runs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() uint64 { return readUint("/gc/heap/allocs:bytes") }

// liveHeapMiB forces a full collection and reports the heap it kept. The
// second collection frees what the first only moved to the sync.Pool
// victim caches, such as encoding/json's buffers, which otherwise keep the
// largest recent encode alive and make the figure jump by megabytes.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readUint("/gc/heap/live:bytes")) / (1 << 20)
}

// quantile interpolates linearly between closest ranks of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd turns the set-up repetitions and one measured phase into the
// end-to-end metrics every workload reports.
func endToEnd(setups []time.Duration, p *phase) map[string]metric {
	ops := float64(p.ops())
	return map[string]metric{
		"setup_s":         {median(seconds(setups)), "s"},
		"ops_per_s":       {ops / p.wall.Seconds(), "1/s"},
		"latency_p50_ms":  {quantile(p.latency, 0.5), "ms"},
		"submit_p50_ms":   {quantile(p.submit, 0.5), "ms"},
		"cpu_ms_per_op":   {ms(p.cpu) / ops, "ms"},
		"alloc_mb_per_op": {float64(p.allocBytes) / (1 << 20) / ops, "MiB"},
		"live_heap_mb":    {p.liveMiB, "MiB"},
	}
}

// service is one in-process hdltsd: a server.Server behind a loopback
// listener, reached by a client that keeps one connection alive.
type service struct {
	srv     *server.Server
	http    *http.Server
	served  chan error
	base    string
	client  *http.Client
	handler tracedHandler
}

// startService builds the server and starts serving it on loopback.
func startService(cfg server.Config) (*service, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &service{
		srv:    srv,
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	s.handler.h = srv
	s.http = &http.Server{Handler: &s.handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the HTTP listener, then the server (its job workers and
// workflow runs), and waits for the serve goroutine.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.client.CloseIdleConnections()
	herr := s.http.Shutdown(ctx)
	serr := s.srv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(herr, serr)
}

// call sends one request and reads the whole answer. When tr is set the
// round trip is recorded as an "http" span, and the wrapped handler nests
// its "server.handler" span inside it.
func (s *service) call(tr *tracer, method, path, reqID string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	sp := tr.begin("http")
	resp, err := s.client.Do(req)
	if err != nil {
		tr.end(sp)
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	return resp.StatusCode, out, err
}

// tracedHandler wraps Server.ServeHTTP; while a tracer is attached each
// request an op sends becomes a "server.handler" span inside the client's
// "http" span. Requests the benchmark makes for itself are not recorded.
type tracedHandler struct {
	h  http.Handler
	tr atomic.Pointer[tracer]
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	sp := tr.beginUnder("http", "server.handler")
	t.h.ServeHTTP(w, r)
	tr.end(sp)
}

// scrape reads the named series from GET /metrics. Names are matched
// against the full series key, labels included.
func (s *service) scrape(names ...string) (map[string]float64, error) {
	code, body, err := s.call(nil, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || !want[line[:i]] {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metric %q: %w", line[:i], err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// copyDir copies the regular files of a durable store, so every set-up
// repetition replays the same primed state.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
