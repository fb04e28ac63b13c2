package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdlts/internal/gen"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/wire"
)

// doJSON drives one request with an optional JSON body through the handler.
func doJSON(srv *Server, method, path string, body any) *httptest.ResponseRecorder {
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
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// submitJob posts one single-form job and decodes the JobView.
func submitJob(t *testing.T, srv *Server, algorithm string, problem json.RawMessage) (*JobView, *httptest.ResponseRecorder) {
	t.Helper()
	rec := doJSON(srv, http.MethodPost, "/v1/jobs",
		JobSubmitRequest{Algorithm: algorithm, Problem: problem})
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("submit status = %d, body %s", rec.Code, rec.Body)
	}
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return &v, rec
}

// waitJobState polls GET /v1/jobs/{id} until the job reaches want.
func waitJobState(t *testing.T, srv *Server, id, want string) *JobView {
	t.Helper()
	var v JobView
	waitFor(t, 5*time.Second, func() bool {
		rec := doJSON(srv, http.MethodGet, "/v1/jobs/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET job %s = %d: %s", id, rec.Code, rec.Body)
		}
		v = JobView{}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		return v.State == want
	})
	return &v
}

func TestJobSubmitRunsToDone(t *testing.T) {
	srv := newTestServer(t, Config{})
	v, rec := submitJob(t, srv, "hdlts", problemJSON(t))
	if rec.Code != http.StatusAccepted {
		t.Errorf("fresh submission status = %d, want 202", rec.Code)
	}
	if v.ID == "" || v.Algorithm != "HDLTS" || v.Hash == "" {
		t.Errorf("submitted job = %+v", v)
	}
	done := waitJobState(t, srv, v.ID, "done")
	var res ScheduleResponse
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("job result not a ScheduleResponse: %v", err)
	}
	if res.Makespan != 73 || res.Algorithm != "HDLTS" {
		t.Errorf("job result = %s/%g, want HDLTS/73", res.Algorithm, res.Makespan)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Errorf("done job missing timestamps: %+v", done)
	}
	// The full schedule in the result must reconstruct and validate.
	pr, err := decodeProblem(problemJSON(t))
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := sched.ReadScheduleJSON(pr, bytes.NewReader(res.Schedule))
	if err != nil {
		t.Fatalf("embedded schedule does not reconstruct: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("reconstructed schedule invalid: %v", err)
	}
}

// TestJobResultIgnoresEdgeOrder: a job is addressed by the canonical
// problem, so two submissions that differ only in the order of their
// edges share one hash, the second is answered from the cache, and the
// result is the solve of the canonical form. The dag keeps arcs in input
// order and CPOP breaks ties by it, so a worker that solved the client's
// decoding instead of the canonical one would return a schedule that
// depends on which edge order arrived first.
func TestJobResultIgnoresEdgeOrder(t *testing.T) {
	pr, err := gen.Random(gen.Params{
		V: 10, Alpha: 1, Density: 3, CCR: 1, Procs: 3, WDAG: 50, Beta: 1,
	}, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	forward := json.RawMessage(buf.Bytes())
	var doc map[string]any
	if err := json.Unmarshal(forward, &doc); err != nil {
		t.Fatal(err)
	}
	edges := doc["graph"].(map[string]any)["edges"].([]any)
	slices.Reverse(edges)
	reversed, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	alg, err := registry.Get("cpop")
	if err != nil {
		t.Fatal(err)
	}
	solve := func(raw []byte) []byte {
		t.Helper()
		p, err := decodeProblem(raw)
		if err != nil {
			t.Fatal(err)
		}
		s, err := alg.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := s.WriteScheduleJSON(&out, alg.Name()); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	decoded, err := decodeProblem(reversed)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := CanonicalProblemJSON(decoded)
	if err != nil {
		t.Fatal(err)
	}
	want := solve(canon)
	if bytes.Equal(solve(reversed), want) {
		t.Fatal("CPOP schedules the reversed edge order like the canonical one; the input no longer tells the orders apart")
	}

	srv := newTestServer(t, Config{})
	first, _ := submitJob(t, srv, "cpop", reversed)
	firstDone := waitJobState(t, srv, first.ID, "done")
	second, _ := submitJob(t, srv, "cpop", forward)
	if second.Hash != first.Hash {
		t.Fatalf("edge orders hash apart: %s vs %s", first.Hash, second.Hash)
	}
	if !second.CacheHit && second.ID != first.ID {
		t.Fatalf("second edge order = %+v, want a cache hit or the first job", second)
	}
	secondDone := waitJobState(t, srv, second.ID, "done")
	if !bytes.Equal(firstDone.Result, secondDone.Result) {
		t.Fatalf("job results differ across edge orders:\n%s\n%s", firstDone.Result, secondDone.Result)
	}
	var res ScheduleResponse
	if err := json.Unmarshal(firstDone.Result, &res); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, res.Schedule); err != nil {
		t.Fatal(err)
	}
	var wantC bytes.Buffer
	if err := json.Compact(&wantC, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantC.Bytes()) {
		t.Errorf("job schedule is not the canonical problem's solve:\ngot  %s\nwant %s", got.Bytes(), wantC.Bytes())
	}
}

func TestJobResubmitIsCacheHit(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newTestServer(t, Config{Metrics: reg})
	first, _ := submitJob(t, srv, "hdlts", problemJSON(t))
	waitJobState(t, srv, first.ID, "done")

	second, rec := submitJob(t, srv, "HDLTS", problemJSON(t)) // different case, same content
	if rec.Code != http.StatusOK {
		t.Errorf("cache-hit submission status = %d, want 200", rec.Code)
	}
	if !second.CacheHit || second.State != "done" || second.ID == first.ID {
		t.Errorf("resubmission = %+v, want a fresh done job with cache_hit", second)
	}
	if second.Hash != first.Hash {
		t.Errorf("hashes differ for identical content: %s vs %s", first.Hash, second.Hash)
	}
	if v := reg.Counter("hdltsd_jobs_cache_hits_total").Value(); v != 1 {
		t.Errorf("cache hits = %d, want 1", v)
	}
	// Only the first submission solved: one observation in the histogram.
	if n := reg.Histogram("hdltsd_schedule_seconds", "alg", "HDLTS").Count(); n != 1 {
		t.Errorf("schedule executions = %d, want 1 (second answered from cache)", n)
	}
}

func TestJobBatchSubmit(t *testing.T) {
	srv := newTestServer(t, Config{})
	rec := doJSON(srv, http.MethodPost, "/v1/jobs", JobSubmitRequest{
		Jobs: []JobSubmitItem{
			{Algorithm: "hdlts", Problem: problemJSON(t)},
			{Algorithm: "heft", Problem: problemJSON(t)},
		},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body)
	}
	var batch JobBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 2 {
		t.Fatalf("batch answered %d jobs, want 2", len(batch.Jobs))
	}
	wantMakespan := map[string]float64{"HDLTS": 73, "HEFT": 80}
	for _, item := range batch.Jobs {
		if item.Job == nil {
			t.Fatalf("batch item missing job: %+v", item)
		}
		done := waitJobState(t, srv, item.Job.ID, "done")
		var res ScheduleResponse
		if err := json.Unmarshal(done.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Makespan != wantMakespan[res.Algorithm] {
			t.Errorf("%s makespan = %g, want %g", res.Algorithm, res.Makespan, wantMakespan[res.Algorithm])
		}
	}
}

func TestJobListFilterAndPagination(t *testing.T) {
	srv := newTestServer(t, Config{})
	// Distinct algorithms give distinct hashes, so nothing coalesces.
	var ids []string
	for _, alg := range []string{"hdlts", "heft", "cpop"} {
		v, _ := submitJob(t, srv, alg, problemJSON(t))
		ids = append(ids, v.ID)
		waitJobState(t, srv, v.ID, "done")
	}
	rec := doJSON(srv, http.MethodGet, "/v1/jobs?state=done&limit=2&offset=1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("list = %d: %s", rec.Code, rec.Body)
	}
	var list JobListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 3 || len(list.Jobs) != 2 || list.Offset != 1 || list.Limit != 2 {
		t.Errorf("page = %d jobs of %d (offset %d limit %d), want 2 of 3 (1, 2)",
			len(list.Jobs), list.Total, list.Offset, list.Limit)
	}
	// Newest first: offset 1 skips the cpop job.
	if list.Jobs[0].ID != ids[1] || list.Jobs[1].ID != ids[0] {
		t.Errorf("page order = %s,%s want %s,%s", list.Jobs[0].ID, list.Jobs[1].ID, ids[1], ids[0])
	}
	if rec := doJSON(srv, http.MethodGet, "/v1/jobs?state=running", nil); rec.Code != http.StatusOK {
		t.Errorf("empty filter list = %d, want 200", rec.Code)
	}
}

func TestJobValidationErrors(t *testing.T) {
	srv := newTestServer(t, Config{})
	good := string(problemJSON(t))
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"not json", http.MethodPost, "/v1/jobs", "{", http.StatusBadRequest},
		{"neither form", http.MethodPost, "/v1/jobs", `{}`, http.StatusBadRequest},
		{"both forms", http.MethodPost, "/v1/jobs",
			`{"problem":` + good + `,"jobs":[{"problem":` + good + `}]}`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/jobs", `{"bogus":1}`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, "/v1/jobs", `{"problem":` + good + `} trailing garbage {`, http.StatusBadRequest},
		{"second object", http.MethodPost, "/v1/jobs", `{"problem":` + good + `}{}`, http.StatusBadRequest},
		{"bad problem", http.MethodPost, "/v1/jobs", `{"problem":{"procs":0}}`, http.StatusBadRequest},
		{"unknown algorithm", http.MethodPost, "/v1/jobs",
			`{"algorithm":"nope","problem":` + good + `}`, http.StatusBadRequest},
		{"bad batch item", http.MethodPost, "/v1/jobs",
			`{"jobs":[{"algorithm":"hdlts","problem":` + good + `},{"algorithm":"nope","problem":` + good + `}]}`,
			http.StatusBadRequest},
		{"unknown job", http.MethodGet, "/v1/jobs/j-doesnotexist", "", http.StatusNotFound},
		{"cancel unknown", http.MethodDelete, "/v1/jobs/j-doesnotexist", "", http.StatusNotFound},
		{"bad state filter", http.MethodGet, "/v1/jobs?state=bogus", "", http.StatusBadRequest},
		{"bad limit", http.MethodGet, "/v1/jobs?limit=0", "", http.StatusBadRequest},
		{"bad offset", http.MethodGet, "/v1/jobs?offset=-1", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body any
			if tc.body != "" {
				body = tc.body
			}
			rec := doJSON(srv, tc.method, tc.path, body)
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("non-2xx body is not an ErrorResponse: %s", rec.Body)
			}
		})
	}
	// A rejected batch admits nothing.
	if rec := doJSON(srv, http.MethodGet, "/v1/jobs", nil); rec.Code == http.StatusOK {
		var list JobListResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &list); err == nil && list.Total != 0 {
			t.Errorf("invalid submissions leaked %d jobs into the store", list.Total)
		}
	}
}

// jobsBlockingLookup parks the canonical HDLTS name too: job execution
// resolves the stored canonical algorithm name, not the submitted alias,
// so "block" must stay blocking after the round-trip through alg.Name().
func jobsBlockingLookup(b *blockingAlg) func(string) (sched.Algorithm, error) {
	return func(name string) (sched.Algorithm, error) {
		if name == "block" || name == "HDLTS" {
			return b, nil
		}
		return registry.Get(name)
	}
}

func TestJobCancelLifecycle(t *testing.T) {
	blk := &blockingAlg{started: make(chan struct{}, 2), release: make(chan struct{})}
	srv := newTestServer(t, Config{
		Lookup:  jobsBlockingLookup(blk),
		Workers: 1,
	})
	running, _ := submitJob(t, srv, "block", problemJSON(t))
	<-blk.started // job occupies the only worker
	// A different canonical algorithm gives a second hash, so no
	// coalescing with the blocked job (which canonicalises to HDLTS).
	queued, _ := submitJob(t, srv, "heft", problemJSON(t))

	rec := doJSON(srv, http.MethodDelete, "/v1/jobs/"+queued.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel queued = %d: %s", rec.Code, rec.Body)
	}
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.State != "cancelled" {
		t.Errorf("cancelled queued job state = %s", v.State)
	}

	rec = doJSON(srv, http.MethodDelete, "/v1/jobs/"+running.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel running = %d: %s", rec.Code, rec.Body)
	}
	close(blk.release)
	waitJobState(t, srv, running.ID, "cancelled")

	if rec := doJSON(srv, http.MethodDelete, "/v1/jobs/"+running.ID, nil); rec.Code != http.StatusConflict {
		t.Errorf("cancel of finished job = %d, want 409", rec.Code)
	}
}

func TestJobQueueSaturationGets429WithRetryAfter(t *testing.T) {
	blk := &blockingAlg{started: make(chan struct{}, 2), release: make(chan struct{})}
	srv := newTestServer(t, Config{
		Lookup:     jobsBlockingLookup(blk),
		Workers:    1,
		QueueDepth: 1,
	})
	defer close(blk.release)
	if _, rec := submitJob(t, srv, "block", problemJSON(t)); rec.Code != http.StatusAccepted {
		t.Fatal("first submit not accepted")
	}
	<-blk.started
	// Distinct canonical algorithms per submission so nothing coalesces:
	// the blocked job holds the worker, heft fills the 1-deep queue.
	if _, rec := submitJob(t, srv, "heft", problemJSON(t)); rec.Code != http.StatusAccepted {
		t.Fatal("second submit not accepted")
	}
	rec := doJSON(srv, http.MethodPost, "/v1/jobs",
		JobSubmitRequest{Algorithm: "cpop", Problem: problemJSON(t)})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
}

func TestRetryAfterDerivedFromObservedLatency(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newTestServer(t, Config{Metrics: reg, Workers: 2, QueueDepth: 9})
	// No observations yet: conservative 1s.
	if got := srv.retryAfterSeconds("HDLTS", 9, 2); got != 1 {
		t.Errorf("retryAfter with no data = %d, want 1", got)
	}
	// Mean 2s, 9 queued ahead + this request, 2 workers → ceil(2*10/2) = 10.
	h := reg.Histogram("hdltsd_schedule_seconds", "alg", "HDLTS")
	h.Observe(1)
	h.Observe(3)
	if got := srv.retryAfterSeconds("HDLTS", 9, 2); got != 10 {
		t.Errorf("retryAfter = %d, want 10", got)
	}
	// Clamped to 60 for pathological backlogs.
	if got := srv.retryAfterSeconds("HDLTS", 1000, 1); got != 60 {
		t.Errorf("retryAfter clamp = %d, want 60", got)
	}
	// The sync 429 path uses the same estimate (header checked in
	// TestSaturationGets429; the derivation is what's new here).
}

// countingLookup wraps the registry and counts Schedule executions, to
// prove cache hits never re-solve.
type countingAlg struct {
	sched.Algorithm
	runs *atomic.Int64
}

func (c countingAlg) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	c.runs.Add(1)
	return c.Algorithm.Schedule(pr)
}

// TestJobSurvivesRestartEndToEnd is the acceptance path: a job submitted
// over HTTP outlives its daemon (abandoned mid-run, as after SIGKILL —
// every WAL append is fsynced), completes with the correct makespan under
// a fresh server on the same store, and an identical resubmission is a
// cache hit with no new solve.
func TestJobSurvivesRestartEndToEnd(t *testing.T) {
	dir := t.TempDir()
	blk := &blockingAlg{started: make(chan struct{}, 1), release: make(chan struct{})}
	crashed, err := New(Config{
		Metrics: obs.NewRegistry(),
		Lookup:  jobsBlockingLookup(blk),
		Workers: 1,
		Jobs:    jobs.Config{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, rec := submitJob(t, crashed, "block", problemJSON(t))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	<-blk.started // the job's "running" record is on disk; now "kill" the daemon
	t.Cleanup(func() { close(blk.release) })

	var runs atomic.Int64
	reg := obs.NewRegistry()
	srv := newTestServer(t, Config{
		Metrics: reg,
		Lookup: func(name string) (sched.Algorithm, error) {
			alg, err := registry.Get(name)
			if err != nil {
				return nil, err
			}
			return countingAlg{alg, &runs}, nil
		},
		Jobs: jobs.Config{Dir: dir},
	})
	done := waitJobState(t, srv, v.ID, "done")
	var res ScheduleResponse
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 73 {
		t.Errorf("recovered job makespan = %g, want 73", res.Makespan)
	}
	if runs.Load() != 1 {
		t.Fatalf("recovered runs = %d, want 1", runs.Load())
	}

	again, rec := submitJob(t, srv, "hdlts", problemJSON(t))
	if rec.Code != http.StatusOK || !again.CacheHit {
		t.Errorf("resubmission = %d %+v, want 200 with cache_hit", rec.Code, again)
	}
	if v := reg.Counter("hdltsd_jobs_cache_hits_total").Value(); v != 1 {
		t.Errorf("hdltsd_jobs_cache_hits_total = %d, want 1", v)
	}
	if runs.Load() != 1 {
		t.Errorf("runs after cache hit = %d, want still 1 (no new solve)", runs.Load())
	}

	// The jobs metrics are visible on /metrics.
	mrec := doJSON(srv, http.MethodGet, "/metrics", nil)
	for _, want := range []string{
		"hdltsd_jobs_cache_hits_total 1",
		`hdltsd_jobs_state{state="done"} 2`,
		"hdltsd_jobs_wal_fsync_seconds_count",
	} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestJobsDrainingRefusesSubmission(t *testing.T) {
	srv := newTestServer(t, Config{})
	srv.Drain()
	rec := doJSON(srv, http.MethodPost, "/v1/jobs",
		JobSubmitRequest{Algorithm: "hdlts", Problem: problemJSON(t)})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", rec.Code)
	}
}

func TestJobFailureSurfacesError(t *testing.T) {
	srv := newTestServer(t, Config{
		Lookup: func(name string) (sched.Algorithm, error) {
			return failingAlg{}, nil
		},
		Jobs: jobs.Config{MaxAttempts: 2},
	})
	v, _ := submitJob(t, srv, "hdlts", problemJSON(t))
	failed := waitJobState(t, srv, v.ID, "failed")
	if failed.Attempts != 1 || !strings.Contains(failed.Error, "synthetic failure") {
		t.Errorf("failed job = %+v, want 1 attempt and the run error", failed)
	}
}

// failingAlg always errors, driving the fail-on-first-error path.
type failingAlg struct{}

func (failingAlg) Name() string { return "HDLTS" }
func (failingAlg) Schedule(*sched.Problem) (*sched.Schedule, error) {
	return nil, fmt.Errorf("synthetic failure")
}

// TestSolvePanicIsA500 pins panic containment in the solve pipeline: a
// solver that panics answers /v1/schedule with 500 and fails its job, and
// the same server keeps serving.
func TestSolvePanicIsA500(t *testing.T) {
	srv := newTestServer(t, Config{
		Lookup: func(name string) (sched.Algorithm, error) {
			if name == "boom" {
				return panickingAlg{}, nil
			}
			return registry.Get(name)
		},
	})
	rec := postSchedule(t, srv, ScheduleRequest{Algorithm: "boom", Problem: problemJSON(t)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "solver bug") {
		t.Errorf("panicking solve = %d: %s, want 500 naming the panic", rec.Code, rec.Body)
	}
	v, _ := submitJob(t, srv, "boom", problemJSON(t))
	if failed := waitJobState(t, srv, v.ID, "failed"); !strings.Contains(failed.Error, "solver bug") {
		t.Errorf("failed job = %+v, want the panic as its error", failed)
	}
	if rec := postSchedule(t, srv, ScheduleRequest{Algorithm: "hdlts", Problem: problemJSON(t)}); rec.Code != http.StatusOK {
		t.Errorf("request after the panics = %d: %s, want 200", rec.Code, rec.Body)
	}
}

// panickingAlg panics in Schedule, standing in for a solver bug.
type panickingAlg struct{}

func (panickingAlg) Name() string { return "boom" }
func (panickingAlg) Schedule(*sched.Problem) (*sched.Schedule, error) {
	panic("solver bug")
}

// jobView converts a stored job to its wire form, as the handlers did
// before they wrote replies with wire.Writer: the oracle side of
// TestJobRepliesMatchEncoder.
func jobView(j *jobs.Job) *JobView {
	v := &JobView{
		ID:              j.ID,
		Algorithm:       j.Algorithm,
		Hash:            j.Hash,
		TraceID:         j.TraceID,
		State:           string(j.State),
		Attempts:        j.Attempts,
		MaxAttempts:     j.MaxAttempts,
		CacheHit:        j.CacheHit,
		CancelRequested: j.CancelRequested,
		Error:           j.Error,
		Result:          j.Result,
		SubmittedAt:     j.SubmittedAt,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		v.StartedAt = &t
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		v.FinishedAt = &t
	}
	return v
}

// TestJobRepliesMatchEncoder pins every /v1/jobs reply shape to the bytes
// the encoding/json encoder it replaced writes for the same wire type.
func TestJobRepliesMatchEncoder(t *testing.T) {
	submitted := time.Date(2026, 10, 19, 21, 28, 1, 123456789, time.UTC)
	started := time.Date(2026, 10, 19, 23, 28, 1, 500000000, time.FixedZone("", 2*3600))
	finished := time.Now() // a monotonic reading and the local zone
	result := json.RawMessage(`{"algorithm":"HDLTS","tasks":10,"procs":3,"makespan":73,"schedule":{"algorithm":"HDLTS",` +
		`"placements":[{"task":0,"proc":2,"start":0,"finish":9.5}]},"elapsed_seconds":1.25e-7}`)
	base := jobs.Job{ID: "j-0123456789abcdef", Algorithm: "HDLTS", Hash: strings.Repeat("ab", 32),
		TraceID: "req-1", MaxAttempts: 3, Seq: 4, Problem: json.RawMessage(`{"procs":3}`), SubmittedAt: submitted}
	job := func(edit func(j *jobs.Job)) *jobs.Job {
		j := base
		edit(&j)
		return &j
	}
	queued := job(func(j *jobs.Job) { j.State = jobs.Queued; j.TraceID = "" })
	running := job(func(j *jobs.Job) { j.State = jobs.Running; j.Attempts = 1; j.StartedAt = started })
	done := job(func(j *jobs.Job) {
		j.State, j.Attempts, j.StartedAt, j.FinishedAt, j.Result = jobs.Done, 1, started, finished, result
	})
	failed := job(func(j *jobs.Job) {
		j.State, j.Attempts, j.StartedAt, j.FinishedAt = jobs.Failed, 1, started, finished
		j.Error = `solve: <task "a"> & 'b' > limit` + " \n"
	})
	cancelled := job(func(j *jobs.Job) {
		j.State, j.CancelRequested, j.StartedAt, j.FinishedAt = jobs.Cancelled, true, started, finished
	})
	cacheHit := job(func(j *jobs.Job) {
		j.State, j.CacheHit, j.FinishedAt, j.Problem = jobs.Done, true, submitted, nil
		j.Result = json.RawMessage(" {\"makespan\": 73,\n \"note\": \"<a>&\\u00e9\", \"v\": [1, 2.50, {}]} ")
	})
	const full = "queue full (64 queued, 2 workers)"

	for _, c := range []struct {
		name   string
		write  func(w *wire.Writer)
		oracle any
	}{
		{"queued", func(w *wire.Writer) { appendJob(w, queued) }, jobView(queued)},
		{"running", func(w *wire.Writer) { appendJob(w, running) }, jobView(running)},
		{"done", func(w *wire.Writer) { appendJob(w, done) }, jobView(done)},
		{"failed", func(w *wire.Writer) { appendJob(w, failed) }, jobView(failed)},
		{"cancelled", func(w *wire.Writer) { appendJob(w, cancelled) }, jobView(cancelled)},
		{"cache hit", func(w *wire.Writer) { appendJob(w, cacheHit) }, jobView(cacheHit)},
		{"batch with a 429", func(w *wire.Writer) {
			appendJobBatch(w, []submitOutcome{{job: queued}, {err: full, status: http.StatusTooManyRequests}, {job: cacheHit}})
		}, JobBatchResponse{Jobs: []JobBatchItem{
			{Job: jobView(queued)}, {Error: full, Status: http.StatusTooManyRequests}, {Job: jobView(cacheHit)},
		}}},
		{"list page", func(w *wire.Writer) {
			appendJobList(w, []*jobs.Job{done, running, queued}, 7, 2, 3)
		}, JobListResponse{Jobs: []*JobView{jobView(done), jobView(running), jobView(queued)}, Total: 7, Offset: 2, Limit: 3}},
		{"empty list", func(w *wire.Writer) {
			appendJobList(w, nil, 0, 5, 50)
		}, JobListResponse{Jobs: []*JobView{}, Offset: 5, Limit: 50}},
		{"error", func(w *wire.Writer) {
			appendError(w, `job 1: unknown algorithm "<nope>" & more`, http.StatusBadRequest)
		}, ErrorResponse{Error: `job 1: unknown algorithm "<nope>" & more`, Status: http.StatusBadRequest}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(c.oracle); err != nil {
				t.Fatal(err)
			}
			w := wire.GetWriter(true)
			defer w.Free()
			c.write(w)
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
			w.Newline()
			if !bytes.Equal(w.Bytes(), want.Bytes()) {
				t.Errorf("wire.Writer wrote\n%s\nthe encoder writes\n%s", w.Bytes(), want.Bytes())
			}
		})
	}
}
