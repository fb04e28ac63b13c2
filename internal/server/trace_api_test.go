package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hdlts/internal/core"
	"hdlts/internal/gen"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
	"hdlts/internal/sched"
)

// doWithRequestID drives one request with an X-Request-ID header set.
func doWithRequestID(srv *Server, method, path, reqID string, body any) *httptest.ResponseRecorder {
	var buf bytes.Buffer
	if body != nil {
		switch b := body.(type) {
		case string:
			buf.WriteString(b)
		default:
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				panic(err)
			}
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TraceResponse is a trace endpoint body as encoding/json renders it: the
// oracle getTrace holds writeTrace's bytes to.
type TraceResponse struct {
	TraceID       string            `json:"trace_id"`
	Spans         []*obs.Span       `json:"spans"`
	Events        []json.RawMessage `json:"events,omitempty"`
	SpansDropped  int               `json:"spans_dropped,omitempty"`
	EventsDropped int               `json:"events_dropped,omitempty"`
	JobID         string            `json:"job_id,omitempty"`
}

// getTrace fetches and decodes one trace endpoint response, and checks
// that the body has the bytes an indenting json.Encoder makes of it.
func getTrace(t *testing.T, srv *Server, path string) (*TraceResponse, *httptest.ResponseRecorder) {
	t.Helper()
	rec := doJSON(srv, http.MethodGet, path, nil)
	if rec.Code != http.StatusOK {
		return nil, rec
	}
	var tr TraceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("trace response not decodable: %v\n%s", err, rec.Body)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("%s: body differs from encoding/json's:\n%s\nencoding/json:\n%s", path, rec.Body, want.Bytes())
	}
	return &tr, rec
}

// spanNames collects the span names of a trace for containment checks.
func spanNames(tr *TraceResponse) map[string]bool {
	names := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestTraceEndToEndCorrelation is the PR's acceptance test: ONE trace ID
// — the client's X-Request-ID — links every observability surface:
//
//  1. the HTTP response header,
//  2. the access-log line (request_id field),
//  3. the durable job record and its WAL entry on disk, surviving a
//     crash + recovery on a fresh server,
//  4. the span tree and scheduler decision events replayed by
//     GET /v1/jobs/{id}/trace.
func TestTraceEndToEndCorrelation(t *testing.T) {
	const reqID = "e2e-trace-cafe.01"
	dir := t.TempDir()
	var logBuf syncBuffer

	// First daemon: submit with a fixed X-Request-ID against a blocking
	// algorithm, then abandon mid-run (the crash).
	blk := &blockingAlg{started: make(chan struct{}, 1), release: make(chan struct{})}
	crashed, err := New(Config{
		Metrics:   obs.NewRegistry(),
		AccessLog: newJSONLogger(&logBuf),
		Lookup:    jobsBlockingLookup(blk),
		Workers:   1,
		Jobs:      jobs.Config{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := doWithRequestID(crashed, http.MethodPost, "/v1/jobs", reqID,
		JobSubmitRequest{Algorithm: "block", Problem: problemJSON(t)})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}

	// Surface 1: the response header echoes the ID.
	if got := rec.Header().Get("X-Request-ID"); got != reqID {
		t.Errorf("response X-Request-ID = %q, want %q", got, reqID)
	}
	// Surface 2: the access log line carries it as request_id.
	if line := logBuf.String(); !strings.Contains(line, `"request_id":"`+reqID+`"`) {
		t.Errorf("access log missing request_id %q: %s", reqID, line)
	}
	// The submitted job record carries it immediately.
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.TraceID != reqID {
		t.Errorf("job trace_id = %q, want %q", v.TraceID, reqID)
	}
	// Surface 3a: the fsynced WAL on disk has the correlation before the
	// job even finishes — a crash cannot lose it.
	wal, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wal), `"trace_id":"`+reqID+`"`) {
		t.Errorf("WAL missing trace_id %q:\n%s", reqID, wal)
	}

	<-blk.started // running record durable; "kill" the daemon here

	// Second daemon on the same store: recovery re-runs the job.
	srv := newTestServer(t, Config{
		Metrics: obs.NewRegistry(),
		Jobs:    jobs.Config{Dir: dir},
	})
	done := waitJobState(t, srv, v.ID, "done")
	// Surface 3b: the recovered, completed job still carries the ID.
	if done.TraceID != reqID {
		t.Errorf("recovered job trace_id = %q, want %q", done.TraceID, reqID)
	}

	// Surface 4: the job trace endpoint replays the re-run's span tree and
	// decision events under the original trace ID — the recovered run
	// re-adopted the persisted correlation, on a daemon that never saw the
	// original HTTP request.
	tr, trec := getTrace(t, srv, "/v1/jobs/"+v.ID+"/trace")
	if tr == nil {
		t.Fatalf("job trace = %d: %s", trec.Code, trec.Body)
	}
	if tr.TraceID != reqID || tr.JobID != v.ID {
		t.Errorf("trace ids = %q/%q, want %q/%q", tr.TraceID, tr.JobID, reqID, v.ID)
	}
	names := spanNames(tr)
	for _, want := range []string{"job.run", "schedule.run", "schedule.solve", "schedule.validate"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
	for _, sp := range tr.Spans {
		if sp.TraceID != reqID {
			t.Errorf("span %s carries trace %q, want %q", sp.Name, sp.TraceID, reqID)
		}
	}
	if len(tr.Events) == 0 {
		t.Fatal("trace has no scheduler decision events")
	}
	commits := 0
	for _, raw := range tr.Events {
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
		t.Errorf("trace has %d commit events, want >= 10 (one per Fig. 1 task)", commits)
	}

	close(blk.release)
}

func TestScheduleTraceRecordedInRing(t *testing.T) {
	const reqID = "sync-trace-01"
	srv := newTestServer(t, Config{})
	rec := doWithRequestID(srv, http.MethodPost, "/v1/schedule", reqID,
		ScheduleRequest{Algorithm: "hdlts", Problem: problemJSON(t)})
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Request-ID"); got != reqID {
		t.Errorf("X-Request-ID = %q, want %q", got, reqID)
	}
	tr, trec := getTrace(t, srv, "/v1/traces/"+reqID)
	if tr == nil {
		t.Fatalf("trace = %d: %s", trec.Code, trec.Body)
	}
	names := spanNames(tr)
	for _, want := range []string{
		"http.request", "schedule.run", "schedule.solve",
		"schedule.validate", "schedule.evaluate", "schedule.encode",
	} {
		if !names[want] {
			t.Errorf("missing span %q (have %v)", want, names)
		}
	}
	// The root span records the final status; children chain to the root.
	var root *obs.Span
	for _, sp := range tr.Spans {
		if sp.Name == "http.request" {
			root = sp
		}
	}
	if root == nil || root.Attrs["status"] != "200" || root.ParentID != "" {
		t.Errorf("root span = %+v, want status=200 and no parent", root)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "schedule.run" && sp.ParentID != root.SpanID {
			t.Errorf("schedule.run parent = %q, want root %q", sp.ParentID, root.SpanID)
		}
	}
	if len(tr.Events) == 0 {
		t.Error("no decision events recorded in the ring")
	}
	// Requests reusing the ID add to the same trace until its span cap
	// cuts it; the body then reports spans_dropped.
	for i := 0; i < 100; i++ {
		doWithRequestID(srv, http.MethodPost, "/v1/schedule", reqID,
			ScheduleRequest{Algorithm: "hdlts", Problem: problemJSON(t)})
	}
	if tr, trec = getTrace(t, srv, "/v1/traces/"+reqID); tr == nil || tr.SpansDropped == 0 {
		t.Errorf("trace after 101 requests = %d, %+v; want spans dropped", trec.Code, tr)
	}
}

// TestCodecSpansRecorded checks the codec layers appear in retained
// traces under the names the benchmark ledger uses: "schedule.decode" for
// both submission paths, "schedule.hash" for job admission's
// canonicalise+hash.
func TestCodecSpansRecorded(t *testing.T) {
	srv := newTestServer(t, Config{})
	if rec := doWithRequestID(srv, http.MethodPost, "/v1/schedule", "codec-spans-sync",
		ScheduleRequest{Problem: problemJSON(t)}); rec.Code != http.StatusOK {
		t.Fatalf("schedule = %d: %s", rec.Code, rec.Body)
	}
	if rec := doWithRequestID(srv, http.MethodPost, "/v1/jobs", "codec-spans-job",
		JobSubmitRequest{Problem: problemJSON(t)}); rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	for id, want := range map[string][]string{
		"codec-spans-sync": {"schedule.decode", "schedule.encode"},
		"codec-spans-job":  {"schedule.decode", "schedule.hash"},
	} {
		tr, rec := getTrace(t, srv, "/v1/traces/"+id)
		if tr == nil {
			t.Fatalf("trace %s = %d: %s", id, rec.Code, rec.Body)
		}
		names := spanNames(tr)
		for _, name := range want {
			if !names[name] {
				t.Errorf("trace %s missing span %q (have %v)", id, name, names)
			}
		}
	}
}

func TestRequestIDGeneratedAndValidated(t *testing.T) {
	srv := newTestServer(t, Config{})
	// Absent header: a fresh ID is generated and echoed.
	rec := doJSON(srv, http.MethodGet, "/healthz", nil)
	if id := rec.Header().Get("X-Request-ID"); len(id) != 16 {
		t.Errorf("generated request ID = %q, want 16 hex chars", id)
	}
	// Malformed header (spaces, control chars, oversized): replaced, never
	// echoed back verbatim.
	for _, bad := range []string{"has space", "new\nline", strings.Repeat("x", 200), "héx"} {
		rec := doWithRequestID(srv, http.MethodGet, "/healthz", bad, nil)
		if got := rec.Header().Get("X-Request-ID"); got == bad || got == "" {
			t.Errorf("malformed ID %q echoed as %q, want a generated replacement", bad, got)
		}
	}
}

// TestRequestIDEchoedOnErrorPaths pins the satellite guarantee: 429
// (saturated) and 504 (timeout) responses — where correlation matters
// most — still carry the client's X-Request-ID.
func TestRequestIDEchoedOnErrorPaths(t *testing.T) {
	t.Run("429 saturated", func(t *testing.T) {
		blk := &blockingAlg{started: make(chan struct{}, 2), release: make(chan struct{})}
		srv := newTestServer(t, Config{
			Workers:    1,
			QueueDepth: 1,
			Lookup:     blockingLookup(blk),
		})
		problem := problemJSON(t)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				doSchedule(srv, ScheduleRequest{Algorithm: "block", Problem: problem})
			}()
		}
		<-blk.started
		waitFor(t, 5*time.Second, func() bool { return srv.queueDepth.Value() >= 1 })
		rec := doWithRequestID(srv, http.MethodPost, "/v1/schedule", "sat-429-id",
			ScheduleRequest{Algorithm: "block", Problem: problem})
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", rec.Code)
		}
		if got := rec.Header().Get("X-Request-ID"); got != "sat-429-id" {
			t.Errorf("429 X-Request-ID = %q, want sat-429-id", got)
		}
		close(blk.release)
		wg.Wait()
	})
	t.Run("504 timeout", func(t *testing.T) {
		blk := &blockingAlg{release: make(chan struct{})}
		srv := newTestServer(t, Config{
			Workers:        1,
			RequestTimeout: 20 * time.Millisecond,
			Lookup:         blockingLookup(blk),
		})
		rec := doWithRequestID(srv, http.MethodPost, "/v1/schedule", "slow-504-id",
			ScheduleRequest{Algorithm: "block", Problem: problemJSON(t)})
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", rec.Code)
		}
		if got := rec.Header().Get("X-Request-ID"); got != "slow-504-id" {
			t.Errorf("504 X-Request-ID = %q, want slow-504-id", got)
		}
		close(blk.release)
	})
	t.Run("400 bad request", func(t *testing.T) {
		srv := newTestServer(t, Config{})
		rec := doWithRequestID(srv, http.MethodPost, "/v1/schedule", "bad-400-id", "{")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		if got := rec.Header().Get("X-Request-ID"); got != "bad-400-id" {
			t.Errorf("400 X-Request-ID = %q, want bad-400-id", got)
		}
	})
}

func TestTraceNotFoundPaths(t *testing.T) {
	srv := newTestServer(t, Config{})
	if _, rec := getTrace(t, srv, "/v1/traces/never-seen"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", rec.Code)
	}
	if _, rec := getTrace(t, srv, "/v1/jobs/j-0000000000000000/trace"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job trace = %d, want 404", rec.Code)
	}
}

func TestTraceSamplingSheds(t *testing.T) {
	srv := newTestServer(t, Config{TraceSample: 2})
	problem := problemJSON(t)
	retained := 0
	for i := 0; i < 4; i++ {
		id := "sampled-" + string(rune('a'+i))
		rec := doWithRequestID(srv, http.MethodPost, "/v1/schedule", id,
			ScheduleRequest{Problem: problem})
		if rec.Code != http.StatusOK {
			t.Fatalf("schedule = %d", rec.Code)
		}
		// Correlation is unconditional even when the trace is shed.
		if rec.Header().Get("X-Request-ID") != id {
			t.Errorf("sampled-out request lost its X-Request-ID echo")
		}
		if tr, _ := getTrace(t, srv, "/v1/traces/"+id); tr != nil {
			retained++
		}
	}
	if retained != 2 {
		t.Errorf("sample=2 retained %d of 4 traces, want 2", retained)
	}
}

func TestVersionEndpoint(t *testing.T) {
	srv := newTestServer(t, Config{})
	rec := doJSON(srv, http.MethodGet, "/v1/version", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/version = %d", rec.Code)
	}
	var v VersionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion == "" || v.Version == "" {
		t.Errorf("version response incomplete: %+v", v)
	}
	found := false
	for _, a := range v.Algorithms {
		if a == "hdlts" {
			found = true
		}
	}
	if !found {
		t.Errorf("algorithms %v missing hdlts", v.Algorithms)
	}
}

func TestBuildInfoGaugeExposed(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newTestServer(t, Config{Metrics: reg})
	rec := doJSON(srv, http.MethodGet, "/metrics", nil)
	body := rec.Body.String()
	if !strings.Contains(body, "hdltsd_build_info{") {
		t.Errorf("/metrics missing hdltsd_build_info:\n%s", body)
	}
	if !strings.Contains(body, srv.build.GoVersion) {
		t.Errorf("build info gauge missing go_version %q", srv.build.GoVersion)
	}
}

func TestDebugHandlerServesPprofAndVars(t *testing.T) {
	h := DebugHandler()
	for _, tc := range []struct {
		path, want string
	}{
		{"/debug/pprof/", "goroutine"},
		{"/debug/pprof/goroutine?debug=1", "goroutine profile"},
		{"/debug/vars", "memstats"},
		{"/", "hdltsd debug listener"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d", tc.path, rec.Code)
			continue
		}
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("GET %s missing %q", tc.path, tc.want)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/schedule", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("service route on debug listener = %d, want 404", rec.Code)
	}
}

// TestConcurrentMetricsScrapesUnderSaturation pins the satellite: /metrics
// stays responsive and parseable while every worker is busy and the queue
// is full — scrapes must never contend with scheduling admission.
func TestConcurrentMetricsScrapesUnderSaturation(t *testing.T) {
	blk := &blockingAlg{started: make(chan struct{}, 1), release: make(chan struct{})}
	reg := obs.NewRegistry()
	srv := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Metrics:    reg,
		Lookup:     blockingLookup(blk),
	})
	problem := problemJSON(t)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doSchedule(srv, ScheduleRequest{Algorithm: "block", Problem: problem})
		}()
	}
	<-blk.started // pool saturated from here on

	var scrapes sync.WaitGroup
	for g := 0; g < 8; g++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for i := 0; i < 20; i++ {
				rec := doJSON(srv, http.MethodGet, "/metrics", nil)
				if rec.Code != http.StatusOK {
					t.Errorf("/metrics under saturation = %d", rec.Code)
					return
				}
				if err := checkExposition(rec.Body.String()); err != nil {
					t.Errorf("unparseable exposition: %v", err)
					return
				}
			}
		}()
	}
	scrapes.Wait()
	close(blk.release)
	wg.Wait()
}

// checkExposition is a minimal Prometheus text-format parser: every
// non-comment line must be `name{labels} value` with a float value.
func checkExposition(body string) error {
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("no value separator: %q", line)
		}
		name, value := line[:i], line[i+1:]
		if name == "" || value == "" {
			return fmt.Errorf("empty name or value: %q", line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("bad value in %q: %w", line, err)
		}
		if open := strings.Count(name, "{"); open != strings.Count(name, "}") || open > 1 {
			return fmt.Errorf("unbalanced labels: %q", line)
		}
	}
	return nil
}

// TestV1kTraceCompleteInRing: the ring stores a 1000-task solve's decision
// record whole. For each of eight seeded 8-proc problems, /v1/traces/{id}
// reports nothing dropped and its events equal, byte for byte, the events
// the same request got back with "trace": true.
func TestV1kTraceCompleteInRing(t *testing.T) {
	srv := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		pr, err := gen.Random(gen.Params{V: 1000, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		if err := pr.WriteJSON(&raw); err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("v1k-%d", i)
		rec := doWithRequestID(srv, http.MethodPost, "/v1/schedule", id,
			ScheduleRequest{Algorithm: "hdlts", Problem: raw.Bytes(), Trace: true})
		if rec.Code != http.StatusOK {
			t.Fatalf("problem %d: %d: %s", i, rec.Code, rec.Body)
		}
		var resp ScheduleResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		tr, trec := getTrace(t, srv, "/v1/traces/"+id)
		if tr == nil {
			t.Fatalf("problem %d: trace = %d: %s", i, trec.Code, trec.Body)
		}
		if tr.EventsDropped != 0 || len(tr.Events) != len(resp.Events) {
			t.Fatalf("problem %d: ring has %d events (%d dropped), the response %d",
				i, len(tr.Events), tr.EventsDropped, len(resp.Events))
		}
		for j := range tr.Events {
			var a, b bytes.Buffer
			if err := json.Compact(&a, tr.Events[j]); err != nil {
				t.Fatal(err)
			}
			if err := json.Compact(&b, resp.Events[j]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("problem %d event %d: ring %s, response %s", i, j, a.Bytes(), b.Bytes())
			}
		}
	}
}

// TestV10kTraceBoundedLikeRing: a 10k-task solve's decision record
// outgrows the per-trace cap. The "trace": true body then holds what the
// ring keeps for the request: the same events_dropped, and events equal to
// /v1/traces/{id}'s byte for byte. The traced request allocates at most
// twice what the same request untraced does, both measured from empty
// buffer pools: a request that finds the read and writer pools warm
// allocates about 20 MiB less, and whether they survived the last
// collection is up to the runtime.
func TestV10kTraceBoundedLikeRing(t *testing.T) {
	srv := newTestServer(t, Config{})
	pr, err := gen.Random(gen.Params{V: 10000, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2},
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := pr.WriteJSON(&raw); err != nil {
		t.Fatal(err)
	}
	post := func(id string, trace bool) (rec *httptest.ResponseRecorder, alloc uint64) {
		t.Helper()
		body, err := json.Marshal(ScheduleRequest{Algorithm: "hdlts", Problem: raw.Bytes(), Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		req.Header.Set("X-Request-ID", id)
		rec = httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC() // a pool's items survive one collection, as its victim cache
		runtime.GC()
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d: %.200s", id, rec.Code, rec.Body)
		}
		return rec, after.TotalAlloc - before.TotalAlloc
	}
	post("v10k-warm", false)
	_, plain := post("v10k-plain", false)
	rec, traced := post("v10k-traced", true)

	var resp ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	t.Logf("traced body %d bytes, %d events (%d dropped); allocated %.1f MiB traced, %.1f MiB untraced",
		rec.Body.Len(), len(resp.Events), resp.EventsDropped, float64(traced)/(1<<20), float64(plain)/(1<<20))
	if traced > 2*plain {
		t.Errorf("traced request allocated %d bytes, more than twice the untraced %d", traced, plain)
	}
	tr, trec := getTrace(t, srv, "/v1/traces/v10k-traced")
	if tr == nil {
		t.Fatalf("trace = %d: %s", trec.Code, trec.Body)
	}
	if resp.EventsDropped == 0 || resp.EventsDropped != tr.EventsDropped || len(resp.Events) != len(tr.Events) {
		t.Fatalf("response has %d events (%d dropped), the ring %d (%d dropped); want the same cut trace",
			len(resp.Events), resp.EventsDropped, len(tr.Events), tr.EventsDropped)
	}
	for j := range tr.Events {
		var a, b bytes.Buffer
		if err := json.Compact(&a, tr.Events[j]); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&b, resp.Events[j]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("event %d: ring %s, response %s", j, a.Bytes(), b.Bytes())
		}
	}
}

// nanAlg is HDLTS plus one decision event whose value is NaN.
type nanAlg struct{}

func (nanAlg) Name() string { return "HDLTS" }

func (nanAlg) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	pr.Tracer().Emit(obs.Event{Type: obs.EvPV, Task: 0, Proc: -1, Iter: 1, Value: math.NaN()})
	return core.New().Schedule(pr)
}

// TestNaNEventRefused: an event encoding/json cannot encode fails the
// "trace": true response and the trace endpoint with a 500, as it did when
// encoding/json wrote events; the untraced response is unaffected.
func TestNaNEventRefused(t *testing.T) {
	srv := newTestServer(t, Config{Lookup: func(string) (sched.Algorithm, error) { return nanAlg{}, nil }})
	for _, trace := range []bool{false, true} {
		id := fmt.Sprintf("nan-%v", trace)
		rec := doWithRequestID(srv, http.MethodPost, "/v1/schedule", id,
			ScheduleRequest{Problem: problemJSON(t), Trace: trace})
		if want := map[bool]int{false: http.StatusOK, true: http.StatusInternalServerError}[trace]; rec.Code != want {
			t.Errorf("trace=%v: status %d, want %d: %s", trace, rec.Code, want, rec.Body)
		}
		if _, rec := getTrace(t, srv, "/v1/traces/"+id); rec.Code != http.StatusInternalServerError {
			t.Errorf("trace=%v: GET trace = %d, want 500: %s", trace, rec.Code, rec.Body)
		}
	}
}
