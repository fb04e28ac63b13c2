// Package jobs is the daemon's durable asynchronous job subsystem: submit
// a scheduling problem now, collect the result later. A job moves through
// queued → running → done | failed | cancelled, survives daemon restarts
// via a file-backed JSONL write-ahead log with snapshot compaction, and
// finished jobs expire after a TTL. The lifecycle, the job table and its
// WAL are internal/durable's, shared with the workflow executor.
//
// Attempts run on a Pool, the bounded worker pool the server also runs
// /v1/schedule solves on. Solves are deterministic, so an attempt that
// errors fails its job: a retry could only repeat it. Only a restart that
// interrupted a running attempt grants another, up to MaxAttempts.
//
// In front of execution sits a content-addressed result cache: callers
// submit a problem together with its canonical hash (see the server
// codec's CanonicalHash), duplicate in-flight submissions coalesce onto
// the active job singleflight-style, and completed results are served
// from an LRU without re-solving — scheduling is deterministic for a
// given (algorithm, problem) pair, so a cached answer is the answer.
//
// The package is deliberately ignorant of scheduling: execution is a
// RunFunc provided by the embedding layer (internal/server wires it to
// the schedule → validate → evaluate pipeline), and both the problem and
// the result are opaque JSON. A submitter may hand over the problem's
// decoded form as well, which the package carries, unread and
// unpersisted, to the fresh job's run (Decoded).
package jobs

import (
	"encoding/json"
	"errors"
	"time"

	"hdlts/internal/durable"
)

// State is one phase of the job lifecycle: a job is admitted queued, its
// attempt moves it to running, and it finishes done, failed, or
// cancelled. The lifecycle is the durable core's, shared with workflows.
type State = durable.State

// The five lifecycle states.
const (
	Queued    = durable.Queued
	Running   = durable.Running
	Done      = durable.Done
	Failed    = durable.Failed
	Cancelled = durable.Cancelled
)

// Job is one asynchronous scheduling request. The struct is both the wire
// unit the WAL persists and the value the Manager hands back to callers
// (always as a private copy — mutating a returned Job affects nothing).
type Job struct {
	// ID is the unique job handle ("j-" + 16 hex chars).
	ID string `json:"id"`
	// Algorithm is the canonical registry name the job runs.
	Algorithm string `json:"algorithm"`
	// Hash is the content address of (algorithm, problem) — the cache and
	// coalescing key.
	Hash string `json:"hash"`
	// TraceID correlates this job with the HTTP request that submitted it:
	// the same ID appears in the X-Request-ID response header, the access
	// log, and the span/decision-event trace. Persisted with the job, so
	// the correlation survives crash recovery.
	TraceID string `json:"trace_id,omitempty"`
	// Problem is the canonically serialised problem in compact form, kept
	// so a recovered job can re-run without the original request: the
	// bytes the WAL line holds and replay yields. Hash is taken over the
	// indented canonical form.
	Problem json.RawMessage `json:"problem,omitempty"`
	// State is the current lifecycle phase.
	State State `json:"state"`
	// Attempts counts execution attempts consumed so far.
	Attempts int `json:"attempts"`
	// MaxAttempts bounds Attempts across restarts; recovery fails a job
	// that has used them all.
	MaxAttempts int `json:"max_attempts"`
	// Error holds why a failed job failed: its attempt's error, or the
	// recovery note of a job whose attempts restarts used up.
	Error string `json:"error,omitempty"`
	// Result is the opaque JSON the RunFunc produced (done jobs only).
	Result json.RawMessage `json:"result,omitempty"`
	// CacheHit marks a job answered from the result cache without running.
	CacheHit bool `json:"cache_hit,omitempty"`
	// CancelRequested marks a running job whose result will be discarded.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Seq orders jobs by submission (monotonic across restarts).
	Seq uint64 `json:"seq"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// clone returns an independent copy safe to hand outside the Manager's
// lock. RawMessage contents are shared but never mutated after being set.
func (j *Job) clone() *Job {
	c := *j
	return &c
}

// RecordID, RecordSeq and RecordState expose the job to the durable table.
func (j *Job) RecordID() string           { return j.ID }
func (j *Job) RecordSeq() uint64          { return j.Seq }
func (j *Job) RecordState() durable.State { return j.State }

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound: no job with that ID (404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrSaturated: the pool's queue is full; retry later (429).
	ErrSaturated = errors.New("jobs: queue full")
	// ErrFinished: the job already reached a terminal state (409 on cancel).
	ErrFinished = errors.New("jobs: job already finished")
	// ErrClosed: the manager has shut down (503).
	ErrClosed = errors.New("jobs: manager closed")
)
