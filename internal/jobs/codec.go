package jobs

import (
	"encoding/json"
	"fmt"
	"time"

	"hdlts/internal/wire"
)

// AppendRecord writes j, a WAL payload or snapshot element, with the bytes
// json.Marshal writes for a Job: the empty optional members left out, the
// zero times written, as omitempty leaves a struct. Problem and Result go
// in as they are (wire.Writer.Raw), with no check: this process wrote them
// compact, with the wire codec, or replay read them from such a line.
func (j *Job) AppendRecord(w *wire.Writer) {
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
	if len(j.Problem) > 0 {
		w.Key("problem")
		w.Raw(j.Problem)
	}
	w.Key("state")
	w.String(string(j.State))
	w.Key("attempts")
	w.Int(j.Attempts)
	w.Key("max_attempts")
	w.Int(j.MaxAttempts)
	if j.Error != "" {
		w.Key("error")
		w.String(j.Error)
	}
	if len(j.Result) > 0 {
		w.Key("result")
		w.Raw(j.Result)
	}
	if j.CacheHit {
		w.Key("cache_hit")
		w.Bool(true)
	}
	if j.CancelRequested {
		w.Key("cancel_requested")
		w.Bool(true)
	}
	w.Key("seq")
	w.Uint64(j.Seq)
	w.Key("submitted_at")
	w.Time(j.SubmittedAt)
	w.Key("started_at")
	w.Time(j.StartedAt)
	w.Key("finished_at")
	w.Time(j.FinishedAt)
	w.EndObject()
}

// DecodeRecord decodes one job object, a WAL payload or snapshot element,
// into j without reflection, by encoding/json's rules for Job: keys match
// case-insensitively, the last of a repeated key wins, unknown keys are
// skipped, and null leaves a field as it is — except Problem and Result,
// which hold a null as json.RawMessage does. Problem and Result are copied
// out of the scanned bytes; the time fields go through
// (*time.Time).UnmarshalJSON with the raw value, as encoding/json passes
// it. The first syntax or type error is returned.
func (j *Job) DecodeRecord(s *wire.Scanner) error {
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
		return s.Err()
	case wire.Object:
	default:
		s.Skip()
		if err := s.Err(); err != nil {
			return err
		}
		return fmt.Errorf("cannot decode %s into a job", k)
	}
	var err error
	obj := s.Object()
	for err == nil && obj.Next() {
		switch {
		case obj.Is("id"):
			err = s.StringInto(&j.ID)
		case obj.Is("algorithm"):
			err = s.StringInto(&j.Algorithm)
		case obj.Is("hash"):
			err = s.StringInto(&j.Hash)
		case obj.Is("trace_id"):
			err = s.StringInto(&j.TraceID)
		case obj.Is("problem"):
			err = rawInto(s, &j.Problem)
		case obj.Is("state"):
			err = s.StringInto((*string)(&j.State))
		case obj.Is("attempts"):
			err = s.IntInto(&j.Attempts)
		case obj.Is("max_attempts"):
			err = s.IntInto(&j.MaxAttempts)
		case obj.Is("error"):
			err = s.StringInto(&j.Error)
		case obj.Is("result"):
			err = rawInto(s, &j.Result)
		case obj.Is("cache_hit"):
			err = s.BoolInto(&j.CacheHit)
		case obj.Is("cancel_requested"):
			err = s.BoolInto(&j.CancelRequested)
		case obj.Is("seq"):
			err = s.Uint64Into(&j.Seq)
		case obj.Is("submitted_at"):
			err = timeInto(s, &j.SubmittedAt)
		case obj.Is("started_at"):
			err = timeInto(s, &j.StartedAt)
		case obj.Is("finished_at"):
			err = timeInto(s, &j.FinishedAt)
		default:
			s.Skip()
		}
	}
	if err != nil {
		return err
	}
	return s.Err()
}

// rawInto copies the next value into *m the way json.RawMessage's
// UnmarshalJSON does, reusing its backing array.
func rawInto(s *wire.Scanner, m *json.RawMessage) error {
	raw, err := s.Raw()
	if err == nil {
		*m = append((*m)[:0], raw...)
	}
	return err
}

// timeInto hands the next value, whatever its kind, to
// (*time.Time).UnmarshalJSON, as encoding/json does.
func timeInto(s *wire.Scanner, t *time.Time) error {
	raw, err := s.Raw()
	if err != nil {
		return err
	}
	return t.UnmarshalJSON(raw)
}
