package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"hdlts/internal/exec"
)

// The workflow endpoints are the execution front door: POST /v1/workflows
// accepts a declarative YAML workflow definition (not JSON — the body is
// the same file hdltsrun takes), plans it with HDLTS, and starts live
// execution under the request's trace ID; GET polls progress including
// per-step state, observed durations, and the re-plan count; DELETE
// cancels. The engine itself lives in internal/exec — this file only
// adapts HTTP to it.

// WorkflowView is the wire form of a workflow record. It mirrors
// exec.Record minus the embedded definition: clients that submitted the
// YAML already have it, and step commands may embed secrets not worth
// echoing on every poll.
type WorkflowView struct {
	ID        string            `json:"id"`
	Name      string            `json:"name"`
	State     exec.State        `json:"state"`
	TraceID   string            `json:"trace_id,omitempty"`
	Error     string            `json:"error,omitempty"`
	Steps     []exec.StepStatus `json:"steps"`
	ObservedW []exec.WEntry     `json:"observed_w,omitempty"`
	Replans   int               `json:"replans"`
	Makespan  float64           `json:"makespan_seconds,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// WorkflowListResponse answers GET /v1/workflows.
type WorkflowListResponse struct {
	Workflows []*WorkflowView `json:"workflows"`
	Total     int             `json:"total"`
}

func workflowView(r *exec.Record) *WorkflowView {
	v := &WorkflowView{
		ID:          r.ID,
		Name:        r.Name,
		State:       r.State,
		TraceID:     r.TraceID,
		Error:       r.Error,
		Steps:       r.Steps,
		ObservedW:   r.ObservedW,
		Replans:     r.Replans,
		Makespan:    r.MakespanSeconds,
		SubmittedAt: r.SubmittedAt,
	}
	if !r.StartedAt.IsZero() {
		v.StartedAt = &r.StartedAt
	}
	if !r.FinishedAt.IsZero() {
		v.FinishedAt = &r.FinishedAt
	}
	return v
}

func (s *Server) handleWorkflowSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.workflowError(w, http.StatusServiceUnavailable, "drain",
			errors.New("server is shutting down"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.workflowError(w, http.StatusRequestEntityTooLarge, "body_too_large", err)
			return
		}
		s.workflowError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	wf, err := exec.DecodeWorkflow(body)
	if err != nil {
		s.workflowError(w, http.StatusBadRequest, "bad_workflow", err)
		return
	}
	rec, err := s.wfs.Submit(r.Context(), wf)
	if err != nil {
		if errors.Is(err, exec.ErrClosed) {
			s.workflowError(w, http.StatusServiceUnavailable, "drain", err)
			return
		}
		if errors.Is(err, exec.ErrSaturated) {
			s.workflowError(w, http.StatusTooManyRequests, "saturated", err)
			return
		}
		s.workflowError(w, http.StatusInternalServerError, "plan", err)
		return
	}
	writeJSON(w, http.StatusAccepted, workflowView(rec))
}

func (s *Server) handleWorkflowGet(w http.ResponseWriter, r *http.Request) {
	rec, err := s.wfs.Get(r.PathValue("id"))
	if err != nil {
		s.workflowError(w, http.StatusNotFound, "not_found", err)
		return
	}
	writeJSON(w, http.StatusOK, workflowView(rec))
}

func (s *Server) handleWorkflowList(w http.ResponseWriter, _ *http.Request) {
	recs := s.wfs.List()
	resp := &WorkflowListResponse{
		Workflows: make([]*WorkflowView, 0, len(recs)),
		Total:     len(recs),
	}
	for _, r := range recs {
		resp.Workflows = append(resp.Workflows, workflowView(r))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkflowCancel(w http.ResponseWriter, r *http.Request) {
	rec, err := s.wfs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, exec.ErrNotFound):
		s.workflowError(w, http.StatusNotFound, "not_found", err)
		return
	case errors.Is(err, exec.ErrFinished):
		s.workflowError(w, http.StatusConflict, "finished", err)
		return
	case err != nil:
		s.workflowError(w, http.StatusInternalServerError, "cancel", err)
		return
	}
	writeJSON(w, http.StatusOK, workflowView(rec))
}

// workflowError answers one failed workflow request and bumps the matching
// error counter.
func (s *Server) workflowError(w http.ResponseWriter, status int, reason string, err error) {
	s.cfg.Metrics.Counter(metricWorkflowErrors, "reason", reason).Inc()
	writeError(w, status, fmt.Sprintf("workflow: %v", err))
}
