package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/wire"
)

// writeTrace answers one trace request with tr: trace_id, spans, the
// decision events in the form "trace": true bodies carry them (events),
// spans_dropped and events_dropped (non-zero when a cap cut the trace to a
// prefix) and job_id; empty members are left out, as writeJSON would.
func (s *Server) writeTrace(rw http.ResponseWriter, tr *obs.Trace, jobID string) {
	w := wire.GetWriter(true)
	spans, err := json.Marshal(tr.Spans)
	w.BeginObject()
	w.Key("trace_id")
	w.String(tr.TraceID)
	w.Key("spans")
	if err == nil {
		w.Raw(spans)
	}
	if len(tr.Events) > 0 {
		w.Key("events")
		w.BeginArray()
		for i, ev := range tr.Events {
			obs.AppendEvent(w, uint64(i+1), 0, ev)
		}
		w.EndArray()
	}
	if tr.SpansDropped > 0 {
		w.Key("spans_dropped")
		w.Int(tr.SpansDropped)
	}
	if tr.EventsDropped > 0 {
		w.Key("events_dropped")
		w.Int(tr.EventsDropped)
	}
	if jobID != "" {
		w.Key("job_id")
		w.String(jobID)
	}
	w.EndObject()
	if err = errors.Join(err, w.Err()); err != nil {
		w.Free()
		s.traceError(rw, http.StatusInternalServerError, "encode", fmt.Errorf("encode trace: %w", err))
		return
	}
	writeBody(rw, http.StatusOK, w)
}

// handleTraceGet serves GET /v1/traces/{id}: the trace recorded for one
// request ID, straight from the ring. 404 covers both "never existed" and
// "evicted or sampled out" — the ring is bounded by design.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.traces.Get(id)
	if !ok {
		s.traceError(w, http.StatusNotFound, "not_found",
			fmt.Errorf("no trace %q (evicted, sampled out, or never recorded)", id))
		return
	}
	s.writeTrace(w, tr, "")
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's persisted
// trace_id resolved against the trace ring, replaying the span tree and
// decision events of the request that submitted it (and, for recovered
// jobs, of the re-run — both record under the same ID).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.traceError(w, http.StatusNotFound, "not_found", err)
		return
	}
	if j.TraceID == "" {
		s.traceError(w, http.StatusNotFound, "no_trace",
			fmt.Errorf("job %s predates trace correlation (no trace_id recorded)", j.ID))
		return
	}
	tr, ok := s.traces.Get(j.TraceID)
	if !ok {
		s.traceError(w, http.StatusNotFound, "not_found",
			fmt.Errorf("trace %q for job %s not retained (evicted or sampled out)",
				j.TraceID, j.ID))
		return
	}
	s.writeTrace(w, tr, j.ID)
}

// VersionResponse answers GET /v1/version with the binary's identity —
// the same facts the hdltsd_build_info gauge and `hdltsd -version` report.
type VersionResponse struct {
	obs.BuildInfo
	// Algorithms is the paper algorithm registry, so one call identifies
	// both the binary and what it can run.
	Algorithms []string `json:"algorithms"`
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, VersionResponse{
		BuildInfo:  s.build,
		Algorithms: registry.Names(),
	})
}

// traceError answers one failed trace/version request and bumps the
// matching error counter.
func (s *Server) traceError(w http.ResponseWriter, status int, reason string, err error) {
	s.cfg.Metrics.Counter(metricTraceErrors, "reason", reason).Inc()
	writeError(w, status, err.Error())
}
