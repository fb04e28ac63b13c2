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
	"hdlts/internal/sched"
	"hdlts/internal/wire"
)

// JobSubmitRequest is the POST /v1/jobs wire request. Exactly one form:
// a single job inline (algorithm + problem, like /v1/schedule), or a
// batch under "jobs". The server reads it with decodeJobSubmit, which
// accepts what encoding/json accepts into this type.
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

// JobView is the wire form of one job, which appendJob writes straight
// from the stored job. The stored problem is omitted — clients already
// have it, and sweep-sized problems would bloat every status poll.
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

// jobItem is one submission of a POST /v1/jobs body as decoded: the
// algorithm as sent, and the problem decoded in place or why it was not.
type jobItem struct {
	algorithm string
	problem   *sched.Problem
	err       error // the problem's decode or validation error
	set       bool  // a "problem" member was read
}

// decodeJobSubmit parses one POST /v1/jobs body in a single pass, as
// decodeScheduleRequest does: the body is read into a pooled buffer, the
// envelope is scanned, and each problem, single or batch, is decoded in
// place. It accepts exactly what json.Decoder with DisallowUnknownFields
// accepts into a JobSubmitRequest followed by only whitespace: keys at
// either level are case-insensitive and unknown ones refused, the last of
// a repeated key wins, and a repeated "jobs" array decodes over the
// earlier one element by element. An envelope that breaks these rules, or
// holds both forms or neither, is the returned error. A problem that does
// not decode or validate is its item's err, which the caller reports after
// the item's algorithm. The single form comes back as one item, with
// single set.
func decodeJobSubmit(r io.Reader) (items []jobItem, single bool, err error) {
	body, release, err := wire.ReadAll(r)
	if err != nil {
		return nil, false, fmt.Errorf("decode request: %w", err)
	}
	defer release()
	s := wire.NewScanner(body)
	var req jobItem
	var batch jobSlots
	bad := req.scan(s, &batch)
	s.AtEOF()
	if err := s.Err(); err != nil {
		return nil, false, fmt.Errorf("decode request: %w", err)
	}
	if bad != nil {
		return nil, false, fmt.Errorf("decode request: %w", bad)
	}
	if req.set == (batch.n > 0) {
		return nil, false, errors.New(`request needs exactly one of "problem" or "jobs"`)
	}
	if req.set {
		return []jobItem{req}, true, nil
	}
	return batch.slots[:batch.n], false, nil
}

// scan decodes one object onto it and returns its first envelope error:
// the request itself when batch is non-nil, which then takes the "jobs"
// member, or one element of "jobs". null leaves it as it is.
func (it *jobItem) scan(s *wire.Scanner, batch *jobSlots) error {
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
		return nil
	case wire.Object:
	default:
		s.Skip()
		if batch != nil {
			return fmt.Errorf("cannot decode %s into a request", k)
		}
		return fmt.Errorf("cannot decode %s into a job", k)
	}
	var bad error
	obj := s.Object()
	for obj.Next() {
		var err error
		switch {
		case obj.Is("problem"):
			it.set = true
			it.problem, it.err = sched.ScanProblem(s)
		case obj.Is("algorithm"):
			err = s.StringInto(&it.algorithm)
		case batch != nil && obj.Is("jobs"):
			err = batch.scan(s)
		default:
			err = fmt.Errorf("unknown field %q", obj.Key())
			s.Skip()
		}
		if bad == nil {
			bad = err
		}
	}
	return bad
}

// jobSlots is the "jobs" array as reflection decodes it into a
// []JobSubmitItem. A repeated key decodes element i over the earlier
// element i; the elements a shorter array cut off come back when a longer
// one reaches them again, until null or [] empties the slice.
type jobSlots struct {
	slots []jobItem // every element held since the slice was last emptied
	n     int       // elements in the current value
}

func (b *jobSlots) scan(s *wire.Scanner) error {
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
		b.slots, b.n = b.slots[:0], 0
		return nil
	case wire.Array:
	default:
		s.Skip()
		return fmt.Errorf("cannot decode %s into a job list", k)
	}
	var bad error
	arr := s.Array()
	i := 0
	for ; arr.Next(); i++ {
		if i == len(b.slots) {
			b.slots = append(b.slots, jobItem{})
		}
		if err := b.slots[i].scan(s, nil); bad == nil {
			bad = err
		}
	}
	if i == 0 {
		b.slots = b.slots[:0]
	}
	b.n = i
	return bad
}

// jobSubmission is one validated, hash-addressed submission ready for the
// manager.
type jobSubmission struct {
	algorithm string // canonical registry name
	hash      string
	canonical json.RawMessage // compact
	// problem is the decoded problem, canonicalised in memory so that it
	// equals what decoding canonical gives; a fresh job's run solves it.
	problem *sched.Problem
}

// prepareSubmission validates one decoded item — registry lookup, then its
// problem — and returns its content address with the compact canonical
// problem the job stores and the decoded problem the run hands over.
// Every failure is a client error. The canonicalise+hash step records the
// "schedule.hash" span under ctx.
func (s *Server) prepareSubmission(ctx context.Context, it *jobItem) (*jobSubmission, error) {
	name := it.algorithm
	if name == "" {
		name = "hdlts"
	}
	alg, err := s.cfg.Lookup(name)
	if err != nil {
		return nil, err
	}
	if !it.set {
		return nil, errors.New("request has no problem")
	}
	if it.err != nil {
		return nil, it.err
	}
	_, hash := obs.StartSpan(ctx, "schedule.hash")
	defer hash.Finish()
	canon, h, err := canonicalize(alg.Name(), it.problem)
	if err != nil {
		return nil, err
	}
	it.problem.Canonicalize()
	return &jobSubmission{algorithm: alg.Name(), hash: h, canonical: canon, problem: it.problem}, nil
}

// runJobFunc is the jobs.RunFunc the manager runs on the solve pool: the same
// schedule → validate → evaluate → encode pipeline as /v1/schedule. The
// ctx carries the job's persisted trace ID; the run re-adopts it into the
// trace ring so spans and decision events land under the original
// correlation ID — even when the job is a recovered re-run after a
// restart. A job admitted by this process solves the problem its
// submission decoded and handed over (jobs.Decoded), canonicalised to
// equal the stored bytes' decoding; a recovered job decodes the stored
// canonical serialisation. Either way the same problem is solved.
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
	pr, _ := jobs.Decoded(ctx).(*sched.Problem)
	if pr == nil {
		if pr, err = decodeProblem(problem); err != nil {
			return nil, err
		}
	}
	out := s.runSchedule(ctx, alg, pr, false, false, false)
	if out.err != nil {
		return nil, out.err
	}
	defer out.body.Free()
	return bytes.Clone(out.body.Bytes()), nil
}

// submitOutcome is one admission's answer: the admitted job, or why the
// pool refused it.
type submitOutcome struct {
	job    *jobs.Job
	err    string
	status int
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.jobError(w, http.StatusServiceUnavailable, "drain",
			errors.New("server is shutting down"))
		return
	}
	_, dec := obs.StartSpan(r.Context(), "schedule.decode")
	items, single, err := decodeJobSubmit(requestBody(w, r, s.cfg.MaxBodyBytes))
	dec.Finish()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.jobError(w, http.StatusRequestEntityTooLarge, "body_too_large", err)
			return
		}
		s.jobError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	// Validate the whole batch before admitting anything: one malformed
	// item rejects the request with nothing enqueued.
	subs := make([]*jobSubmission, len(items))
	for i := range items {
		sub, err := s.prepareSubmission(r.Context(), &items[i])
		if err != nil {
			s.jobError(w, http.StatusBadRequest, "bad_request",
				fmt.Errorf("job %d: %w", i, err))
			return
		}
		subs[i] = sub
	}

	outs := make([]submitOutcome, len(subs))
	saturated := false
	traceID := obs.TraceIDFrom(r.Context())
	for i, sub := range subs {
		j, err := s.jobs.SubmitTraced(sub.algorithm, sub.hash, traceID, sub.canonical, sub.problem)
		switch {
		case errors.Is(err, jobs.ErrSaturated):
			saturated = true
			s.cfg.Metrics.Counter(metricJobsErrors, "reason", "saturated").Inc()
			outs[i] = submitOutcome{err: s.saturated(w, sub.algorithm).Error(), status: http.StatusTooManyRequests}
		case err != nil:
			s.jobError(w, http.StatusServiceUnavailable, "submit", err)
			return
		default:
			outs[i] = submitOutcome{job: j}
		}
	}
	body := wire.GetWriter(true)
	status := http.StatusAccepted
	switch {
	case single && saturated:
		status = http.StatusTooManyRequests
		appendError(body, outs[0].err, status)
	case single:
		if outs[0].job.State == jobs.Done {
			status = http.StatusOK // answered from the result cache
		}
		appendJob(body, outs[0].job)
	default:
		if saturated {
			status = http.StatusTooManyRequests
		}
		appendJobBatch(body, outs)
	}
	s.writeJobBody(w, status, body)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.jobError(w, http.StatusNotFound, "not_found", err)
		return
	}
	body := wire.GetWriter(true)
	appendJob(body, j)
	s.writeJobBody(w, http.StatusOK, body)
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
	body := wire.GetWriter(true)
	appendJobList(body, page, total, offset, limit)
	s.writeJobBody(w, http.StatusOK, body)
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
		body := wire.GetWriter(true)
		appendJob(body, j)
		s.writeJobBody(w, http.StatusOK, body)
	}
}

// jobError answers one failed jobs-API request and bumps the matching
// error counter.
func (s *Server) jobError(w http.ResponseWriter, status int, reason string, err error) {
	s.cfg.Metrics.Counter(metricJobsErrors, "reason", reason).Inc()
	writeError(w, status, err.Error())
}

// writeJobBody sends a jobs-API reply body, or a 500 when the Writer kept
// an error: a time outside RFC 3339's years.
func (s *Server) writeJobBody(w http.ResponseWriter, status int, body *wire.Writer) {
	if err := body.Err(); err != nil {
		body.Free()
		s.jobError(w, http.StatusInternalServerError, "encode", fmt.Errorf("encode reply: %w", err))
		return
	}
	writeBody(w, status, body)
}

// The jobs-API replies are appended by an indented wire.Writer with the
// bytes an Encoder with SetIndent("", "  ") writes for their wire types
// (JobView, JobBatchResponse, JobListResponse, ErrorResponse). A value
// the Writer cannot write is kept in its Err.

// appendJob writes j as its JobView: every field but the stored problem,
// the empty optional ones left out. The stored result goes in with
// wire.Writer.Raw, unchecked: a worker of this process wrote it, or WAL
// replay checked it.
func appendJob(w *wire.Writer, j *jobs.Job) {
	w.BeginObject()
	w.Key("id")
	w.String(j.ID)
	w.Key("algorithm")
	w.String(j.Algorithm)
	w.Key("hash")
	w.String(j.Hash)
	if j.TraceID != "" {
		w.Key("trace_id")
		w.String(j.TraceID)
	}
	w.Key("state")
	w.String(string(j.State))
	w.Key("attempts")
	w.Int(j.Attempts)
	w.Key("max_attempts")
	w.Int(j.MaxAttempts)
	if j.CacheHit {
		w.Key("cache_hit")
		w.Bool(true)
	}
	if j.CancelRequested {
		w.Key("cancel_requested")
		w.Bool(true)
	}
	if j.Error != "" {
		w.Key("error")
		w.String(j.Error)
	}
	if len(j.Result) > 0 {
		w.Key("result")
		w.Raw(j.Result)
	}
	w.Key("submitted_at")
	w.Time(j.SubmittedAt)
	if !j.StartedAt.IsZero() {
		w.Key("started_at")
		w.Time(j.StartedAt)
	}
	if !j.FinishedAt.IsZero() {
		w.Key("finished_at")
		w.Time(j.FinishedAt)
	}
	w.EndObject()
}

// appendJobBatch writes a batch submission's outcomes as a
// JobBatchResponse.
func appendJobBatch(w *wire.Writer, outs []submitOutcome) {
	w.BeginObject()
	w.Key("jobs")
	w.BeginArray()
	for _, o := range outs {
		w.BeginObject()
		if o.job != nil {
			w.Key("job")
			appendJob(w, o.job)
		}
		if o.err != "" {
			w.Key("error")
			w.String(o.err)
		}
		if o.status != 0 {
			w.Key("status")
			w.Int(o.status)
		}
		w.EndObject()
	}
	w.EndArray()
	w.EndObject()
}

// appendJobList writes one page of jobs as a JobListResponse.
func appendJobList(w *wire.Writer, page []*jobs.Job, total, offset, limit int) {
	w.BeginObject()
	w.Key("jobs")
	w.BeginArray()
	for _, j := range page {
		appendJob(w, j)
	}
	w.EndArray()
	w.Key("total")
	w.Int(total)
	w.Key("offset")
	w.Int(offset)
	w.Key("limit")
	w.Int(limit)
	w.EndObject()
}

// appendError writes an ErrorResponse.
func appendError(w *wire.Writer, msg string, status int) {
	w.BeginObject()
	w.Key("error")
	w.String(msg)
	w.Key("status")
	w.Int(status)
	w.EndObject()
}

// writeError answers with an ErrorResponse body, the one every non-2xx
// answer carries.
func writeError(w http.ResponseWriter, status int, msg string) {
	body := wire.GetWriter(true)
	appendError(body, msg, status)
	writeBody(w, status, body)
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
