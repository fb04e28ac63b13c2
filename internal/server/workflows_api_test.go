package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hdlts/internal/exec"
	"hdlts/internal/obs"
)

// fastRunner pretends every step succeeds instantly — workflow API tests
// exercise the HTTP surface, not shell execution.
func fastRunner(ctx context.Context, step exec.Step) error { return ctx.Err() }

const wfYAML = `name: api-demo
procs: 2
steps:
  - name: a
    command: true
    cost: 0.001
  - name: b
    command: true
    depends: [a]
    cost: 0.001
`

func submitWorkflow(t *testing.T, srv *Server, yaml string) (*WorkflowView, *httptest.ResponseRecorder) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/workflows", strings.NewReader(yaml))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var v WorkflowView
	if rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("decode workflow view: %v (body %s)", err, rec.Body)
		}
	}
	return &v, rec
}

func getWorkflow(t *testing.T, srv *Server, id string) (*WorkflowView, int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/workflows/"+id, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var v WorkflowView
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("decode workflow view: %v", err)
		}
	}
	return &v, rec.Code
}

func waitWorkflowState(t *testing.T, srv *Server, id string, want exec.State) *WorkflowView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, code := getWorkflow(t, srv, id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/workflows/%s = %d", id, code)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("workflow state = %v (error %q), want %v", v.State, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWorkflowSubmitRunsToDone(t *testing.T) {
	srv := newTestServer(t, Config{Workflows: exec.Config{
		Runner: fastRunner}})
	v, rec := submitWorkflow(t, srv, wfYAML)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submission status = %d, body %s", rec.Code, rec.Body)
	}
	if v.ID == "" || v.Name != "api-demo" || len(v.Steps) != 2 {
		t.Fatalf("submitted view = %+v", v)
	}
	if v.TraceID != rec.Header().Get("X-Request-ID") {
		t.Errorf("trace ID %q != request ID %q", v.TraceID, rec.Header().Get("X-Request-ID"))
	}
	final := waitWorkflowState(t, srv, v.ID, exec.Done)
	if len(final.ObservedW) != 2 {
		t.Errorf("observed W entries = %d, want 2", len(final.ObservedW))
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Errorf("done workflow missing timestamps: %+v", final)
	}

	// The trace endpoint must show plan and execution under one ID.
	req := httptest.NewRequest(http.MethodGet, "/v1/traces/"+v.TraceID, nil)
	trec := httptest.NewRecorder()
	srv.ServeHTTP(trec, req)
	if trec.Code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d", v.TraceID, trec.Code)
	}
	body := trec.Body.String()
	for _, span := range []string{"http.request", "workflow.plan", "workflow.run", "step.run"} {
		if !strings.Contains(body, span) {
			t.Errorf("trace missing %q span: %s", span, body)
		}
	}

	// And the list endpoint includes it.
	lreq := httptest.NewRequest(http.MethodGet, "/v1/workflows", nil)
	lrec := httptest.NewRecorder()
	srv.ServeHTTP(lrec, lreq)
	var list WorkflowListResponse
	if err := json.Unmarshal(lrec.Body.Bytes(), &list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if list.Total != 1 || len(list.Workflows) != 1 || list.Workflows[0].ID != v.ID {
		t.Errorf("list = %+v", list)
	}
}

func TestWorkflowSubmitRejectsBadYAML(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newTestServer(t, Config{Metrics: reg, Workflows: exec.Config{Runner: fastRunner}})
	cases := []string{
		"",
		"steps:\n  - name: a\n", // no command
		"steps:\n  - name: a\n    command: true\n    depends: [zz]\n",
		"steps:\n\t- tabbed\n",
	}
	for _, src := range cases {
		_, rec := submitWorkflow(t, srv, src)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("submit %q status = %d, want 400", src, rec.Code)
		}
	}
	if v := reg.Counter(metricWorkflowErrors, "reason", "bad_workflow").Value(); v != 4 {
		t.Errorf("bad_workflow counter = %v, want 4", v)
	}
}

func TestWorkflowGetUnknown(t *testing.T) {
	srv := newTestServer(t, Config{Workflows: exec.Config{Runner: fastRunner}})
	if _, code := getWorkflow(t, srv, "wf-nope"); code != http.StatusNotFound {
		t.Errorf("GET unknown workflow = %d, want 404", code)
	}
	req := httptest.NewRequest(http.MethodDelete, "/v1/workflows/wf-nope", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("DELETE unknown workflow = %d, want 404", rec.Code)
	}
}

func TestWorkflowCancelOverHTTP(t *testing.T) {
	blocker := func(ctx context.Context, step exec.Step) error {
		<-ctx.Done()
		return ctx.Err()
	}
	srv := newTestServer(t, Config{Workflows: exec.Config{
		Runner: blocker}})
	v, rec := submitWorkflow(t, srv, "steps:\n  - name: stuck\n    command: sleep 600\n")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submission status = %d", rec.Code)
	}
	waitWorkflowState(t, srv, v.ID, exec.Running)
	req := httptest.NewRequest(http.MethodDelete, "/v1/workflows/"+v.ID, nil)
	drec := httptest.NewRecorder()
	srv.ServeHTTP(drec, req)
	if drec.Code != http.StatusOK {
		t.Fatalf("DELETE = %d, body %s", drec.Code, drec.Body)
	}
	var cancelled WorkflowView
	if err := json.Unmarshal(drec.Body.Bytes(), &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.State != exec.Cancelled {
		t.Errorf("state after DELETE = %v, want cancelled", cancelled.State)
	}
	// A second cancel conflicts.
	drec2 := httptest.NewRecorder()
	srv.ServeHTTP(drec2, httptest.NewRequest(http.MethodDelete, "/v1/workflows/"+v.ID, nil))
	if drec2.Code != http.StatusConflict {
		t.Errorf("second DELETE = %d, want 409", drec2.Code)
	}
}

func TestWorkflowSubmitSaturated(t *testing.T) {
	reg := obs.NewRegistry()
	blocker := func(ctx context.Context, step exec.Step) error {
		<-ctx.Done()
		return ctx.Err()
	}
	srv := newTestServer(t, Config{Metrics: reg, Workflows: exec.Config{
		Runner: blocker, MaxActive: 1}})
	v, rec := submitWorkflow(t, srv, "steps:\n  - name: stuck\n    command: sleep 600\n")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first submission = %d, body %s", rec.Code, rec.Body)
	}
	waitWorkflowState(t, srv, v.ID, exec.Running)
	_, rec2 := submitWorkflow(t, srv, wfYAML)
	if rec2.Code != http.StatusTooManyRequests {
		t.Fatalf("submit past MaxActive = %d, want 429 (body %s)", rec2.Code, rec2.Body)
	}
	if n := reg.Counter(metricWorkflowErrors, "reason", "saturated").Value(); n != 1 {
		t.Errorf("saturated counter = %v, want 1", n)
	}
}

func TestWorkflowSubmitWhileDraining(t *testing.T) {
	srv := newTestServer(t, Config{Workflows: exec.Config{Runner: fastRunner}})
	srv.Drain()
	_, rec := submitWorkflow(t, srv, wfYAML)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", rec.Code)
	}
}
