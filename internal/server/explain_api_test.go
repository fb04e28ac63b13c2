package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hdlts/internal/exec"
	"hdlts/internal/explain"
)

// postScheduleExplain drives POST /v1/schedule?explain=1.
func postScheduleExplain(t *testing.T, srv *Server, body ScheduleRequest) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule?explain=1", &buf)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestScheduleExplainParam(t *testing.T) {
	srv := newTestServer(t, Config{})
	rec := postScheduleExplain(t, srv, ScheduleRequest{Algorithm: "hdlts", Problem: problemJSON(t)})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Explain) == 0 {
		t.Fatal("explain=1 returned no explain report")
	}
	var rep explain.Report
	if err := json.Unmarshal(resp.Explain, &rep); err != nil {
		t.Fatalf("explain report does not decode: %v", err)
	}
	if rep.Tasks != 10 || rep.Procs != 3 || rep.Makespan != 73 {
		t.Errorf("report header = %d tasks / %d procs / %g makespan, want 10/3/73",
			rep.Tasks, rep.Procs, rep.Makespan)
	}
	if len(rep.CriticalPath) == 0 {
		t.Error("report has no critical path")
	}
	rationale := 0
	for _, p := range rep.Placements {
		if p.Rationale != nil {
			rationale++
		}
	}
	if rationale == 0 {
		t.Error("no placement carries a rationale — HDLTS capture did not run")
	}

	// The report is byte-deterministic across identical requests.
	rec2 := postScheduleExplain(t, srv, ScheduleRequest{Algorithm: "hdlts", Problem: problemJSON(t)})
	var resp2 ScheduleResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Explain, resp2.Explain) {
		t.Error("explain report bytes differ across identical requests")
	}

	// Without the param the field stays empty — no capture cost by default.
	rec3 := postSchedule(t, srv, ScheduleRequest{Algorithm: "hdlts", Problem: problemJSON(t)})
	var resp3 ScheduleResponse
	if err := json.Unmarshal(rec3.Body.Bytes(), &resp3); err != nil {
		t.Fatal(err)
	}
	if len(resp3.Explain) != 0 {
		t.Error("explain report present without ?explain=1")
	}
	if resp3.Makespan != resp.Makespan {
		t.Errorf("explained makespan %g != plain makespan %g", resp.Makespan, resp3.Makespan)
	}
}

// TestScheduleExplainNonHDLTS: algorithms without capture still answer,
// just without per-task rationale.
func TestScheduleExplainNonHDLTS(t *testing.T) {
	srv := newTestServer(t, Config{})
	rec := postScheduleExplain(t, srv, ScheduleRequest{Algorithm: "heft", Problem: problemJSON(t)})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var rep explain.Report
	if err := json.Unmarshal(resp.Explain, &rep); err != nil {
		t.Fatalf("explain report does not decode: %v", err)
	}
	for _, p := range rep.Placements {
		if p.Rationale != nil {
			t.Fatal("non-HDLTS placement has HDLTS rationale")
		}
	}
	if len(rep.CriticalPath) == 0 || len(rep.Processors) != 3 {
		t.Errorf("structural surfaces missing: %d hops, %d procs",
			len(rep.CriticalPath), len(rep.Processors))
	}
}

func TestWorkflowExplainAndGantt(t *testing.T) {
	srv := newTestServer(t, Config{
		Workflows: exec.Config{Runner: driftRunner},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	v := postWorkflowHTTP(t, ts.URL, driftYAML)
	waitDoneHTTP(t, ts.URL, v.ID)

	// Observed-execution report.
	r, err := http.Get(ts.URL + "/v1/workflows/" + v.ID + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("explain = %d", r.StatusCode)
	}
	var rep explain.WorkflowReport
	if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.ID != v.ID || len(rep.Steps) != 6 {
		t.Fatalf("report = %s with %d steps, want %s with 6", rep.ID, len(rep.Steps), v.ID)
	}
	if rep.Replans == 0 {
		t.Error("drift workflow reports no replans")
	}
	if rep.MovedSteps == 0 {
		t.Error("drift workflow reports no moved steps")
	}
	slow := false
	for _, st := range rep.Steps {
		if st.Step == "slow" && st.DriftRatio > 1.5 {
			slow = true
		}
	}
	if !slow {
		t.Errorf("slow step's drift not surfaced: %+v", rep.Steps)
	}
	if len(rep.CriticalChain) == 0 {
		t.Error("no observed critical chain")
	}

	// Gantt SVG of the observed timeline.
	g, err := http.Get(ts.URL + "/v1/workflows/" + v.ID + "/gantt.svg")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Body.Close()
	if g.StatusCode != http.StatusOK {
		t.Fatalf("gantt = %d", g.StatusCode)
	}
	if ct := g.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("gantt Content-Type = %q", ct)
	}
	svg, err := io.ReadAll(g.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(svg)
	if !strings.Contains(body, "<svg") || !strings.Contains(body, "slow") {
		t.Errorf("gantt SVG malformed or missing step labels (%d bytes)", len(svg))
	}

	// Unknown IDs 404 on both surfaces.
	for _, path := range []string{"/v1/workflows/wf-nope/explain", "/v1/workflows/wf-nope/gantt.svg"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}
}
