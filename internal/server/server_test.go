package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hdlts/internal/core"
	"hdlts/internal/gen"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

// problemJSON renders the Fig. 1 problem in the wire form.
func problemJSON(t *testing.T) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := workflows.PaperExample().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postSchedule drives one POST /v1/schedule through the handler.
func postSchedule(t *testing.T, srv *Server, body any) *httptest.ResponseRecorder {
	t.Helper()
	return doSchedule(srv, body)
}

// doSchedule is the goroutine-safe core of postSchedule: no *testing.T, so
// it may be called off the test goroutine (shutdown/saturation tests).
func doSchedule(srv *Server, body any) *httptest.ResponseRecorder {
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			panic(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", &buf)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

func TestScheduleFig1OverHTTP(t *testing.T) {
	srv := newTestServer(t, Config{})
	rec := postSchedule(t, srv, ScheduleRequest{Algorithm: "hdlts", Problem: problemJSON(t)})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Makespan != 73 {
		t.Errorf("makespan = %g, want 73 (the paper's Table I result)", resp.Makespan)
	}
	if resp.Algorithm != "HDLTS" || resp.Tasks != 10 || resp.Procs != 3 {
		t.Errorf("header fields = %q/%d/%d, want HDLTS/10/3", resp.Algorithm, resp.Tasks, resp.Procs)
	}
	if resp.SLR <= 0 || resp.Speedup <= 0 || resp.Efficiency <= 0 {
		t.Errorf("metrics not populated: %+v", resp)
	}
	if len(resp.Events) != 0 {
		t.Errorf("got %d events without trace", len(resp.Events))
	}
	// The embedded schedule must reconstruct and re-validate.
	pr := workflows.PaperExample()
	s, alg, err := sched.ReadScheduleJSON(pr, bytes.NewReader(resp.Schedule))
	if err != nil {
		t.Fatalf("embedded schedule does not reconstruct: %v", err)
	}
	if alg != "HDLTS" || s.Makespan() != 73 {
		t.Errorf("reconstructed %s makespan %g, want HDLTS 73", alg, s.Makespan())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("reconstructed schedule invalid: %v", err)
	}
}

func TestScheduleDefaultsToHDLTS(t *testing.T) {
	srv := newTestServer(t, Config{})
	rec := postSchedule(t, srv, ScheduleRequest{Problem: problemJSON(t)})
	var resp ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != "HDLTS" {
		t.Errorf("default algorithm = %q, want HDLTS", resp.Algorithm)
	}
}

func TestScheduleEveryRegisteredAlgorithm(t *testing.T) {
	srv := newTestServer(t, Config{})
	for _, name := range registry.ExtendedNames() {
		rec := postSchedule(t, srv, ScheduleRequest{Algorithm: name, Problem: problemJSON(t)})
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status = %d, body %s", name, rec.Code, rec.Body)
		}
	}
}

func TestScheduleWithTraceReturnsEvents(t *testing.T) {
	srv := newTestServer(t, Config{})
	rec := postSchedule(t, srv, ScheduleRequest{Algorithm: "hdlts", Problem: problemJSON(t), Trace: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) == 0 {
		t.Fatal("trace requested but no events returned")
	}
	// Each event is a standalone JSONL record with the algorithm stamped.
	var ev struct {
		Seq int    `json:"seq"`
		Ev  string `json:"ev"`
		Alg string `json:"alg"`
	}
	if err := json.Unmarshal(resp.Events[0], &ev); err != nil {
		t.Fatalf("event 0 not parseable: %v", err)
	}
	if ev.Seq != 1 || ev.Alg != "HDLTS" {
		t.Errorf("event 0 = %+v, want seq 1 alg HDLTS", ev)
	}
	// A commit event per task must be present.
	commits := 0
	for _, raw := range resp.Events {
		var e struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		if e.Ev == "commit" {
			commits++
		}
	}
	if commits < 10 {
		t.Errorf("got %d commit events, want >= 10", commits)
	}
}

func TestMalformedRequestsGet400(t *testing.T) {
	srv := newTestServer(t, Config{})
	cases := []struct {
		name, body, wantInError string
	}{
		{"not json", "{", "decode request"},
		{"no problem", `{"algorithm":"hdlts"}`, "no problem"},
		{"unknown field", `{"bogus":1}`, "bogus"},
		{"cyclic dag", `{"problem":{"graph":{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1,"data":1},{"from":1,"to":0,"data":1}]},"procs":2,"costs":[[1,1],[1,1]]}}`, "cycle"},
		{"ragged costs", `{"problem":{"graph":{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1,"data":1}]},"procs":2,"costs":[[1,1],[1]]}}`, "cost row"},
		{"unknown algorithm", `{"algorithm":"nope","problem":{"graph":{"tasks":[{"name":"a"}],"edges":[]},"procs":1,"costs":[[1]]}}`, "unknown algorithm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postSchedule(t, srv, tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", rec.Code, rec.Body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(er.Error, tc.wantInError) {
				t.Errorf("error %q does not mention %q", er.Error, tc.wantInError)
			}
		})
	}
}

func TestOversizedBodyGets413(t *testing.T) {
	srv := newTestServer(t, Config{MaxBodyBytes: 256})
	rec := postSchedule(t, srv, ScheduleRequest{Problem: problemJSON(t)})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
}

func TestMethodAndPathRouting(t *testing.T) {
	srv := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/schedule", http.StatusMethodNotAllowed},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodGet, "/nope", http.StatusNotFound},
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/readyz", http.StatusOK},
		{http.MethodGet, "/metrics", http.StatusOK},
		{http.MethodGet, "/v1/algorithms", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
	}
}

// blockingAlg parks Schedule until released, to make queue states
// deterministic in tests.
type blockingAlg struct {
	started chan struct{} // receives one value per Schedule entry
	release chan struct{} // closed (or fed) to let Schedule finish
}

func (b *blockingAlg) Name() string { return "HDLTS" }

func (b *blockingAlg) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	if b.started != nil {
		b.started <- struct{}{}
	}
	<-b.release
	return core.New().Schedule(pr)
}

// blockingLookup serves "block" from the given algorithm and everything
// else from the registry.
func blockingLookup(b *blockingAlg) func(string) (sched.Algorithm, error) {
	return func(name string) (sched.Algorithm, error) {
		if name == "block" {
			return b, nil
		}
		return registry.Get(name)
	}
}

func TestSaturationGets429(t *testing.T) {
	blk := &blockingAlg{started: make(chan struct{}, 2), release: make(chan struct{})}
	srv := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Lookup:     blockingLookup(blk),
	})
	problem := problemJSON(t)

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	post := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postSchedule(t, srv, ScheduleRequest{Algorithm: "block", Problem: problem})
			codes <- rec.Code
		}()
	}
	// First request occupies the only worker; second fills the queue. The
	// second starts only once the worker has taken the first, or both
	// could reach the one-slot queue at once and the second get the 429.
	post()
	<-blk.started // worker is busy
	post()
	// Wait until the queue slot is taken too (trySubmit for the second
	// request has happened once its depth gauge reads 1).
	waitFor(t, 5*time.Second, func() bool { return srv.queueDepth.Value() >= 1 })

	rec := postSchedule(t, srv, ScheduleRequest{Algorithm: "block", Problem: problem})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(blk.release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted request finished with %d, want 200", code)
		}
	}
}

func TestRequestTimeoutGets504(t *testing.T) {
	blk := &blockingAlg{release: make(chan struct{})}
	srv := newTestServer(t, Config{
		Workers:        1,
		RequestTimeout: 20 * time.Millisecond,
		Lookup:         blockingLookup(blk),
	})
	rec := postSchedule(t, srv, ScheduleRequest{Algorithm: "block", Problem: problemJSON(t)})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	close(blk.release) // let the worker finish so Shutdown drains
}

func TestShutdownDrainsInFlight(t *testing.T) {
	blk := &blockingAlg{started: make(chan struct{}, 1), release: make(chan struct{})}
	reg := obs.NewRegistry()
	srv := newTestServer(t, Config{Workers: 1, Metrics: reg, Lookup: blockingLookup(blk)})

	got := make(chan *httptest.ResponseRecorder, 1)
	blockReq := ScheduleRequest{Algorithm: "block", Problem: problemJSON(t)}
	go func() {
		got <- doSchedule(srv, blockReq)
	}()
	<-blk.started // request is executing

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must wait for the in-flight request, not abort it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Draining state is visible: /readyz 503, new schedule requests 503.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", rec.Code)
	}
	rec = postSchedule(t, srv, ScheduleRequest{Problem: problemJSON(t)})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("schedule while draining = %d, want 503", rec.Code)
	}

	close(blk.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if rec := <-got; rec.Code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200 (body %s)", rec.Code, rec.Body)
	}
}

func TestShutdownHonoursContext(t *testing.T) {
	blk := &blockingAlg{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := New(Config{Workers: 1, Metrics: obs.NewRegistry(), Lookup: blockingLookup(blk)})
	if err != nil {
		t.Fatal(err)
	}
	req := ScheduleRequest{Algorithm: "block", Problem: problemJSON(t)}
	go doSchedule(srv, req)
	<-blk.started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Error("Shutdown returned nil despite a stuck request and an expired context")
	}
	close(blk.release)
	_ = srv.Shutdown(context.Background())
}

func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newTestServer(t, Config{Metrics: reg})
	// One good and one bad request populate latency + error series.
	postSchedule(t, srv, ScheduleRequest{Algorithm: "heft", Problem: problemJSON(t)})
	postSchedule(t, srv, "{")

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`hdltsd_http_requests_total{path="/v1/schedule",code="200"} 1`,
		`hdltsd_http_requests_total{path="/v1/schedule",code="400"} 1`,
		`hdltsd_schedule_seconds_count{alg="HEFT"} 1`,
		`hdltsd_schedule_seconds_bucket{alg="HEFT",le="+Inf"} 1`,
		`hdltsd_schedule_errors_total{reason="bad_request"} 1`,
		`hdltsd_http_request_seconds_count{path="/v1/schedule"} 2`,
		"hdltsd_http_in_flight",
		"hdltsd_queue_depth",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestMetricsOmitSimulator: the daemon serves the process-wide registry,
// and nothing it links registers the online simulator's hdlts_dynamic_
// series there, which only internal/dynamic's runs would move.
func TestMetricsOmitSimulator(t *testing.T) {
	srv := newTestServer(t, Config{Metrics: obs.Default()})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.Contains(line, "hdlts_dynamic_") {
			t.Errorf("/metrics lists a simulator series: %s", line)
		}
	}
}

func TestAccessLogRecords(t *testing.T) {
	var buf syncBuffer
	logger := newJSONLogger(&buf)
	srv := newTestServer(t, Config{AccessLog: logger})
	postSchedule(t, srv, ScheduleRequest{Problem: problemJSON(t)})
	line := buf.String()
	for _, want := range []string{`"path":"/v1/schedule"`, `"status":200`, `"method":"POST"`} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %s: %s", want, line)
		}
	}
}

func TestConcurrentRequestsRaceClean(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	problem := problemJSON(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			alg := registry.ExtendedNames()[i%len(registry.ExtendedNames())]
			rec := postSchedule(t, srv, ScheduleRequest{Algorithm: alg, Problem: problem, Trace: i%2 == 0})
			if rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
				t.Errorf("%s: status %d: %s", alg, rec.Code, rec.Body)
			}
		}(i)
	}
	wg.Wait()
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent log writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func BenchmarkScheduleRequest(b *testing.B) {
	srv, err := New(Config{Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	var buf bytes.Buffer
	if err := workflows.PaperExample().WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(ScheduleRequest{Algorithm: "hdlts", Problem: buf.Bytes()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkScheduleRequestV1k times one POST /v1/schedule of a 1000-task
// problem end to end in the handler, plain, with "trace": true (the
// response embeds every decision event) and with ?explain=1 (it embeds
// the explain report).
func BenchmarkScheduleRequestV1k(b *testing.B) {
	srv, err := New(Config{Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	pr, err := gen.Random(gen.Params{V: 1000, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pr.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name, path string
		trace      bool
	}{{"plain", "/v1/schedule", false}, {"trace", "/v1/schedule", true}, {"explain", "/v1/schedule?explain=1", false}} {
		body, err := json.Marshal(ScheduleRequest{Algorithm: "hdlts", Problem: buf.Bytes(), Trace: v.trace})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, v.path, bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// newJSONLogger builds a slog JSON logger for tests.
func newJSONLogger(w *syncBuffer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}
