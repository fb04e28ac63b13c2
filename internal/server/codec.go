package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"hdlts/internal/obs"
	"hdlts/internal/sched"
	"hdlts/internal/wire"
)

// ScheduleRequest is the POST /v1/schedule wire request. The problem
// subobject uses exactly the JSON form the CLI tools exchange
// (sched.WriteJSON / ReadProblemJSON): {"graph": {...}, "procs": n,
// "costs": [[...]], "bandwidth": [[...]]?}.
type ScheduleRequest struct {
	// Algorithm is a case-insensitive registry name ("hdlts", "heft", ...).
	// Empty selects "hdlts".
	Algorithm string `json:"algorithm,omitempty"`
	// Problem is the workflow + platform + cost matrix to schedule.
	Problem json.RawMessage `json:"problem"`
	// Trace opts in to per-request decision events: the response carries
	// the same JSONL records `hdltsched -events` would write, cut as the
	// trace ring cuts them.
	Trace bool `json:"trace,omitempty"`
}

// ScheduleResponse is the POST /v1/schedule wire response.
type ScheduleResponse struct {
	Algorithm  string  `json:"algorithm"`
	Tasks      int     `json:"tasks"`
	Procs      int     `json:"procs"`
	Makespan   float64 `json:"makespan"`
	SLR        float64 `json:"slr"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	Duplicates int     `json:"duplicates"`
	// Schedule is the full placement list in the WriteScheduleJSON form
	// cmd/validate accepts.
	Schedule json.RawMessage `json:"schedule"`
	// Events holds the decision-event stream (one JSONL record per entry)
	// when the request set "trace": true, cut as the trace ring cuts it.
	Events []json.RawMessage `json:"events,omitempty"`
	// EventsDropped counts the events the cut left out.
	EventsDropped int `json:"events_dropped,omitempty"`
	// Explain holds the explainability report (explain.Report: placement
	// rationale, critical path, per-processor accounting) when the request
	// passed ?explain=1.
	Explain json.RawMessage `json:"explain,omitempty"`
	// ElapsedSeconds is the scheduling wall time inside the worker (queue
	// wait excluded).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// requestBody caps r's body at limit bytes and reports its Content-Length,
// clamped to [0, limit], as the Len wire.ReadAll sizes its buffer from in
// one step: behind http.MaxBytesReader alone the buffer doubles from 512 B.
func requestBody(w http.ResponseWriter, r *http.Request, limit int64) io.Reader {
	return sizedBody{http.MaxBytesReader(w, r.Body, limit), int(max(0, min(r.ContentLength, limit)))}
}

// sizedBody is a request body with its expected length.
type sizedBody struct {
	io.Reader
	n int
}

// Len is the expected length, the size hint wire.ReadAll reads.
func (b sizedBody) Len() int { return b.n }

// decodeScheduleRequest parses and validates one request body in a
// single pass: the body is read into a pooled buffer, the envelope is
// scanned, and its "problem" value is decoded in place, so the returned
// request's Problem stays nil and nothing returned aliases the buffer.
// Every failure is a client error (HTTP 400): malformed JSON, unknown
// fields, anything but whitespace after the request object, a missing or
// malformed problem, cyclic graphs, and ragged or negative cost/bandwidth
// matrices are all rejected with the underlying codec's message. Envelope
// keys follow encoding/json's rules, as the problem's do:
// case-insensitive, the last of a repeated key wins.
func decodeScheduleRequest(r io.Reader) (*ScheduleRequest, *sched.Problem, error) {
	body, release, err := wire.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("decode request: %w", err)
	}
	defer release()
	s := wire.NewScanner(body)
	req := &ScheduleRequest{}
	var (
		pr         *sched.Problem
		prErr, bad error
		hasProblem bool
	)
	fail := func(err error) {
		if err != nil && bad == nil {
			bad = err
		}
	}
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
	case wire.Object:
		obj := s.Object()
		for obj.Next() {
			switch {
			case obj.Is("problem"):
				hasProblem = true
				pr, prErr = sched.ScanProblem(s)
			case obj.Is("algorithm"):
				fail(s.StringInto(&req.Algorithm))
			case obj.Is("trace"):
				fail(s.BoolInto(&req.Trace))
			default:
				fail(fmt.Errorf("unknown field %q", obj.Key()))
				s.Skip()
			}
		}
	default:
		s.Skip()
		fail(fmt.Errorf("cannot decode %s into a request", k))
	}
	s.AtEOF()
	if err := s.Err(); err != nil {
		return nil, nil, fmt.Errorf("decode request: %w", err)
	}
	if bad != nil {
		return nil, nil, fmt.Errorf("decode request: %w", bad)
	}
	if !hasProblem {
		return nil, nil, errors.New("request has no problem")
	}
	if prErr != nil {
		return nil, nil, prErr
	}
	return req, pr, nil
}

// decodeProblem parses and fully validates one problem value on its own —
// the job runner's decoder of a stored problem, and the target
// FuzzDecodeProblem hardens.
func decodeProblem(raw json.RawMessage) (*sched.Problem, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("request has no problem")
	}
	return sched.ScanProblem(wire.NewScanner(raw))
}

// appendScheduleResponse writes resp as a ScheduleResponse whose Schedule
// is sc's WriteScheduleJSON form and whose events are what events holds,
// with the bytes encoding/json would produce for it (compact or indented
// to match w). resp.Schedule, Events and EventsDropped are not read.
func appendScheduleResponse(w *wire.Writer, r *ScheduleResponse, sc *sched.Schedule, events *obs.DecisionLog) error {
	w.BeginObject()
	w.Key("algorithm")
	w.String(r.Algorithm)
	w.Key("tasks")
	w.Int(r.Tasks)
	w.Key("procs")
	w.Int(r.Procs)
	w.Key("makespan")
	w.Float(r.Makespan)
	w.Key("slr")
	w.Float(r.SLR)
	w.Key("speedup")
	w.Float(r.Speedup)
	w.Key("efficiency")
	w.Float(r.Efficiency)
	w.Key("duplicates")
	w.Int(r.Duplicates)
	w.Key("schedule")
	if err := sc.AppendScheduleJSON(w, r.Algorithm); err != nil {
		return err
	}
	if events != nil {
		// Events are numbered from 1, as a JSONL sink numbers them.
		var seq uint64
		dropped := events.Render(func(ev obs.Event) {
			if seq == 0 {
				w.Key("events")
				w.BeginArray()
			}
			seq++
			obs.AppendEvent(w, seq, 0, ev)
		})
		if seq > 0 {
			w.EndArray()
		}
		if dropped > 0 {
			w.Key("events_dropped")
			w.Int(dropped)
		}
	}
	if len(r.Explain) > 0 {
		w.Key("explain")
		w.Raw(r.Explain)
	}
	w.Key("elapsed_seconds")
	w.Float(r.ElapsedSeconds)
	w.EndObject()
	return w.Err()
}
