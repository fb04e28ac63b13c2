package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"hdlts/internal/jobs"
	"hdlts/internal/obs"
)

// JobSubmitRequest is the POST /v1/jobs wire request. Exactly one form:
// a single job inline (algorithm + problem, like /v1/schedule), or a
// batch under "jobs".
type JobSubmitRequest struct {
	// Algorithm is a case-insensitive registry name; empty selects "hdlts".
	Algorithm string `json:"algorithm,omitempty"`
	// Problem is the workflow + platform + cost matrix (single form).
	Problem json.RawMessage `json:"problem,omitempty"`
	// Jobs is the batch form: several submissions admitted atomically with
	// respect to validation (one bad item rejects the whole batch).
	Jobs []JobSubmitItem `json:"jobs,omitempty"`
}

// JobSubmitItem is one entry of a batch submission.
type JobSubmitItem struct {
	Algorithm string          `json:"algorithm,omitempty"`
	Problem   json.RawMessage `json:"problem"`
}

// JobView is the wire form of one job. The stored problem is omitted —
// clients already have it, and sweep-sized problems would bloat every
// status poll.
type JobView struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	Hash      string `json:"hash"`
	// TraceID is the correlation ID of the submitting request (its
	// X-Request-ID); GET /v1/jobs/{id}/trace replays the matching trace.
	TraceID     string `json:"trace_id,omitempty"`
	State       string `json:"state"`
	Attempts    int    `json:"attempts"`
	MaxAttempts int    `json:"max_attempts"`
	// CacheHit marks a job answered from the result cache without solving.
	CacheHit        bool   `json:"cache_hit,omitempty"`
	CancelRequested bool   `json:"cancel_requested,omitempty"`
	Error           string `json:"error,omitempty"`
	// Result is the ScheduleResponse (minus events) once the job is done.
	Result      json.RawMessage `json:"result,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
}

// JobBatchResponse answers a batch submission: one entry per input, in
// order. Entries are independent — some may be admitted while others are
// refused for saturation (error + status set instead of job).
type JobBatchResponse struct {
	Jobs []JobBatchItem `json:"jobs"`
}

// JobBatchItem is one batch submission outcome.
type JobBatchItem struct {
	Job    *JobView `json:"job,omitempty"`
	Error  string   `json:"error,omitempty"`
	Status int      `json:"status,omitempty"`
}

// JobListResponse is one GET /v1/jobs page.
type JobListResponse struct {
	Jobs   []*JobView `json:"jobs"`
	Total  int        `json:"total"`
	Offset int        `json:"offset"`
	Limit  int        `json:"limit"`
}

// jobView converts a stored job to its wire form.
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

// jobSubmission is one validated, hash-addressed submission ready for the
// manager.
type jobSubmission struct {
	algorithm string // canonical registry name
	hash      string
	canonical json.RawMessage
}

// prepareSubmission validates one (algorithm, problem) pair all the way
// down — registry lookup, full problem validation, canonical serialisation
// — and returns its content address. Every failure is a client error. The
// decode and the canonicalise+hash steps record the "schedule.decode" and
// "schedule.hash" spans under ctx.
func (s *Server) prepareSubmission(ctx context.Context, algorithm string, problem json.RawMessage) (*jobSubmission, error) {
	name := algorithm
	if name == "" {
		name = "hdlts"
	}
	alg, err := s.cfg.Lookup(name)
	if err != nil {
		return nil, err
	}
	_, dec := obs.StartSpan(ctx, "schedule.decode")
	pr, err := decodeProblem(problem)
	dec.Finish()
	if err != nil {
		return nil, err
	}
	_, hash := obs.StartSpan(ctx, "schedule.hash")
	defer hash.Finish()
	canon, err := CanonicalProblemJSON(pr)
	if err != nil {
		return nil, err
	}
	return &jobSubmission{
		algorithm: alg.Name(),
		hash:      hashOf(alg.Name(), canon),
		canonical: canon,
	}, nil
}

// runJobFunc is the jobs.RunFunc the manager runs on the solve pool: the same
// schedule → validate → evaluate → encode pipeline as /v1/schedule. The
// ctx carries the job's persisted trace ID; the run re-adopts it into the
// trace ring so spans and decision events land under the original
// correlation ID — even when the job is a recovered re-run after a
// restart. The problem is the stored canonical serialisation, so
// recovered jobs re-run identically.
func (s *Server) runJobFunc(ctx context.Context, algorithm string, problem json.RawMessage) (json.RawMessage, error) {
	if tid := obs.TraceIDFrom(ctx); tid != "" {
		s.traces.Start(tid)
		ctx = obs.WithTraceStore(ctx, s.traces)
	}
	ctx, run := obs.StartSpan(ctx, "job.run", obs.KeyAlg, algorithm)
	defer run.Finish()
	alg, err := s.cfg.Lookup(algorithm)
	if err != nil {
		return nil, err
	}
	pr, err := decodeProblem(problem)
	if err != nil {
		return nil, err
	}
	out := s.runSchedule(ctx, alg, pr, false, false, false)
	if out.err != nil {
		return nil, out.err
	}
	defer out.body.Free()
	return bytes.Clone(out.body.Bytes()), nil
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.jobError(w, http.StatusServiceUnavailable, "drain",
			errors.New("server is shutting down"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req JobSubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		err = trailingData(dec)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.jobError(w, http.StatusRequestEntityTooLarge, "body_too_large", err)
			return
		}
		s.jobError(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("decode request: %w", err))
		return
	}
	single := len(req.Problem) > 0
	if single == (len(req.Jobs) > 0) {
		s.jobError(w, http.StatusBadRequest, "bad_request",
			errors.New(`request needs exactly one of "problem" or "jobs"`))
		return
	}
	items := req.Jobs
	if single {
		items = []JobSubmitItem{{Algorithm: req.Algorithm, Problem: req.Problem}}
	}
	// Validate the whole batch before admitting anything: one malformed
	// item rejects the request with nothing enqueued.
	subs := make([]*jobSubmission, len(items))
	for i, it := range items {
		sub, err := s.prepareSubmission(r.Context(), it.Algorithm, it.Problem)
		if err != nil {
			s.jobError(w, http.StatusBadRequest, "bad_request",
				fmt.Errorf("job %d: %w", i, err))
			return
		}
		subs[i] = sub
	}

	batch := JobBatchResponse{Jobs: make([]JobBatchItem, len(subs))}
	saturated := false
	traceID := obs.TraceIDFrom(r.Context())
	for i, sub := range subs {
		j, err := s.jobs.SubmitTraced(sub.algorithm, sub.hash, traceID, sub.canonical)
		switch {
		case errors.Is(err, jobs.ErrSaturated):
			saturated = true
			s.cfg.Metrics.Counter(metricJobsErrors, "reason", "saturated").Inc()
			batch.Jobs[i] = JobBatchItem{
				Error:  s.saturated(w, sub.algorithm).Error(),
				Status: http.StatusTooManyRequests,
			}
		case err != nil:
			s.jobError(w, http.StatusServiceUnavailable, "submit", err)
			return
		default:
			batch.Jobs[i] = JobBatchItem{Job: jobView(j)}
		}
	}
	switch {
	case single && saturated:
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: batch.Jobs[0].Error, Status: http.StatusTooManyRequests})
	case single:
		status := http.StatusAccepted
		if batch.Jobs[0].Job.State == string(jobs.Done) {
			status = http.StatusOK // answered from the result cache
		}
		writeJSON(w, status, batch.Jobs[0].Job)
	case saturated:
		writeJSON(w, http.StatusTooManyRequests, batch)
	default:
		writeJSON(w, http.StatusAccepted, batch)
	}
}

// trailingData rejects anything but whitespace after the value dec has
// decoded: a request body holds exactly one JSON object.
func trailingData(dec *json.Decoder) error {
	tok, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err != nil:
		return err
	default:
		return fmt.Errorf("unexpected %v after the request object", tok)
	}
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.jobError(w, http.StatusNotFound, "not_found", err)
		return
	}
	writeJSON(w, http.StatusOK, jobView(j))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := jobs.State(q.Get("state"))
	if state != "" && !state.Valid() {
		s.jobError(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("unknown state %q (want queued|running|done|failed|cancelled)", state))
		return
	}
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		s.jobError(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("bad offset %q", q.Get("offset")))
		return
	}
	limit, err := queryInt(q.Get("limit"), 50)
	if err != nil || limit < 1 || limit > 500 {
		s.jobError(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("bad limit %q (want 1..500)", q.Get("limit")))
		return
	}
	page, total := s.jobs.List(state, offset, limit)
	views := make([]*JobView, len(page))
	for i, j := range page {
		views[i] = jobView(j)
	}
	writeJSON(w, http.StatusOK, JobListResponse{
		Jobs: views, Total: total, Offset: offset, Limit: limit,
	})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.jobError(w, http.StatusNotFound, "not_found", err)
	case errors.Is(err, jobs.ErrFinished):
		s.jobError(w, http.StatusConflict, "finished", err)
	case err != nil:
		s.jobError(w, http.StatusInternalServerError, "cancel", err)
	default:
		writeJSON(w, http.StatusOK, jobView(j))
	}
}

// jobError answers one failed jobs-API request and bumps the matching
// error counter.
func (s *Server) jobError(w http.ResponseWriter, status int, reason string, err error) {
	s.cfg.Metrics.Counter(metricJobsErrors, "reason", reason).Inc()
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Status: status})
}

// queryInt parses an optional integer query parameter.
func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// saturated is the one answer to a full solve pool, for /v1/schedule and
// /v1/jobs alike: it sets Retry-After from alg's observed latency and
// returns the error the 429 body carries.
func (s *Server) saturated(w http.ResponseWriter, alg string) error {
	w.Header().Set("Retry-After", strconv.Itoa(
		s.retryAfterSeconds(alg, s.cfg.QueueDepth, s.cfg.Workers)))
	return fmt.Errorf("queue full (%d queued, %d workers)", s.cfg.QueueDepth, s.cfg.Workers)
}

// retryAfterSeconds derives a Retry-After value from observed behaviour
// instead of a fixed constant: the mean recorded latency of the saturated
// algorithm (hdltsd_schedule_seconds) times the work queued ahead of a
// hypothetical retry, divided across the workers, rounded up and clamped
// to [1, 60]. Before any observation it falls back to 1s.
func (s *Server) retryAfterSeconds(alg string, backlog, workers int) int {
	mean := s.cfg.Metrics.Histogram(metricScheduleSeconds, "alg", alg).Mean()
	if mean <= 0 {
		return 1
	}
	secs := int(math.Ceil(mean * float64(backlog+1) / float64(workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}
