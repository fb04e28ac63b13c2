package sched

import (
	"fmt"
	"io"
	"slices"

	"hdlts/internal/dag"
	"hdlts/internal/platform"
	"hdlts/internal/wire"
)

// A completed schedule's wire form is {"algorithm": name?, "makespan": m,
// "placements": [{"task", "name"?, "proc", "start", "finish",
// "duplicate"?}, ...]}: one record per task copy, ordered by (processor,
// start, task) for readability. The problem itself is not embedded.

// AppendScheduleJSON writes the completed schedule as one value into w.
func (s *Schedule) AppendScheduleJSON(w *wire.Writer, algorithm string) error {
	if !s.Complete() {
		return fmt.Errorf("sched: cannot serialise an incomplete schedule (%d/%d placed)", s.NumPlaced(), s.prob.NumTasks())
	}
	// Every copy holds exactly one timeline slot with the same bounds, and
	// each timeline is sorted by start, so gathering the slots processor
	// by processor leaves the sort below only zero-length ties to order.
	// (processor, start, task) is a total order on the copies of a valid
	// schedule, so the result does not depend on the sort algorithm.
	ps := make([]Placement, 0, s.placed+s.NumDuplicates())
	for p := range s.timelines {
		for _, sl := range s.timelines[p].slots {
			ps = append(ps, Placement{Task: sl.Task, Proc: platform.Proc(p), Start: sl.Start, Finish: sl.End, Duplicate: sl.Duplicate})
		}
	}
	slices.SortFunc(ps, func(a, b Placement) int {
		switch {
		case a.Proc != b.Proc:
			return int(a.Proc) - int(b.Proc)
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return int(a.Task) - int(b.Task)
	})
	w.BeginObject()
	if algorithm != "" {
		w.Key("algorithm")
		w.String(algorithm)
	}
	w.Key("makespan")
	w.Float(s.Makespan())
	w.Key("placements")
	if len(ps) == 0 {
		w.Null()
	} else {
		w.BeginArray()
		for _, p := range ps {
			w.BeginObject()
			w.Key("task")
			w.Int(int(p.Task))
			if name := s.prob.G.Task(p.Task).Name; name != "" {
				w.Key("name")
				w.String(name)
			}
			w.Key("proc")
			w.Int(int(p.Proc))
			w.Key("start")
			w.Float(p.Start)
			w.Key("finish")
			w.Float(p.Finish)
			if p.Duplicate {
				w.Key("duplicate")
				w.Bool(true)
			}
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
	if err := w.Err(); err != nil {
		return fmt.Errorf("sched: encode schedule: %w", err)
	}
	return nil
}

// WriteScheduleJSON serialises a completed schedule as indented JSON. Pair
// the file with the problem JSON it was computed from.
func (s *Schedule) WriteScheduleJSON(w io.Writer, algorithm string) error {
	jw := wire.GetWriter(true)
	defer jw.Free()
	if err := s.AppendScheduleJSON(jw, algorithm); err != nil {
		return err
	}
	jw.Newline()
	_, err := w.Write(jw.Bytes())
	return err
}

// ReadScheduleJSON reconstructs a schedule for the given problem from the
// first JSON value in r, a file written by WriteScheduleJSON. The
// reconstruction re-applies every placement through the normal mutation
// path, so overlaps and double placements are rejected; call Validate
// afterwards for full precedence checking. It returns the algorithm name
// recorded in the file.
//
// Decoding follows encoding/json's rules, as ScanProblem does: keys match
// case-insensitively, unknown keys are skipped, a repeated key decodes
// over the earlier value, and null leaves a field unchanged.
func ReadScheduleJSON(pr *Problem, r io.Reader) (*Schedule, string, error) {
	data, release, err := wire.ReadAll(r)
	if err != nil {
		return nil, "", fmt.Errorf("sched: decode schedule: %w", err)
	}
	defer release()
	var sr scheduleReader
	sr.scan(wire.NewScanner(data))
	if sr.err != nil {
		return nil, "", fmt.Errorf("sched: decode schedule: %w", sr.err)
	}
	s := NewSchedule(pr)
	for _, p := range sr.placements[:sr.n] {
		if p.Task < 0 || p.Task >= pr.NumTasks() {
			return nil, "", fmt.Errorf("sched: placement references unknown task %d", p.Task)
		}
		if p.Proc < 0 || p.Proc >= pr.NumProcs() {
			return nil, "", fmt.Errorf("sched: placement references unknown processor %d", p.Proc)
		}
		t := dag.TaskID(p.Task)
		if p.Duplicate {
			err = s.PlaceDuplicate(t, platform.Proc(p.Proc), p.Start)
		} else {
			err = s.Place(t, platform.Proc(p.Proc), p.Start)
		}
		if err != nil {
			return nil, "", err
		}
		// Cross-check the recorded finish against the cost matrix.
		want := p.Start + pr.Exec(t, platform.Proc(p.Proc))
		if diff := p.Finish - want; diff > eps || diff < -eps {
			return nil, "", fmt.Errorf("sched: task %d finish %g inconsistent with costs (want %g)", p.Task, p.Finish, want)
		}
	}
	if !s.Complete() {
		return nil, "", fmt.Errorf("sched: schedule file covers %d of %d tasks", s.NumPlaced(), pr.NumTasks())
	}
	if diff := sr.makespan - s.Makespan(); diff > eps || diff < -eps {
		return nil, "", fmt.Errorf("sched: recorded makespan %g does not match reconstructed %g", sr.makespan, s.Makespan())
	}
	return s, sr.algorithm, nil
}

// placementSlot is one decoded placement record; like the problem
// reader's slots, a repeated "placements" key decodes over it.
type placementSlot struct {
	Task, Proc    int
	Start, Finish float64
	Duplicate     bool
}

type scheduleReader struct {
	s          *wire.Scanner
	err        error
	algorithm  string
	makespan   float64
	placements []placementSlot
	n          int
}

func (r *scheduleReader) fail(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

func (r *scheduleReader) scan(s *wire.Scanner) {
	r.s = s
	defer func() {
		if s.Err() != nil {
			r.err = s.Err()
		}
	}()
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
		return
	case wire.Object:
	default:
		s.Skip()
		r.fail(fmt.Errorf("cannot decode %s into a schedule", k))
		return
	}
	obj := s.Object()
	for obj.Next() {
		switch {
		case obj.Is("placements"):
			r.scanPlacements()
		case obj.Is("algorithm"):
			r.fail(s.StringInto(&r.algorithm))
		case obj.Is("makespan"):
			r.fail(s.FloatInto(&r.makespan))
		default:
			s.Skip()
		}
	}
}

func (r *scheduleReader) scanPlacements() {
	s := r.s
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
		r.placements, r.n = r.placements[:0], 0
		return
	case wire.Array:
	default:
		s.Skip()
		r.fail(fmt.Errorf("cannot decode %s into placements", k))
		return
	}
	arr := s.Array()
	i := 0
	for ; arr.Next(); i++ {
		if i == len(r.placements) {
			r.placements = append(r.placements, placementSlot{})
		}
		switch k := s.Peek(); k {
		case wire.Null:
			s.Null()
		case wire.Object:
			r.placement(&r.placements[i])
		default:
			s.Skip()
			r.fail(fmt.Errorf("cannot decode %s into a placement", k))
		}
	}
	if i == 0 {
		r.placements = r.placements[:0]
	}
	r.n = i
}

func (r *scheduleReader) placement(p *placementSlot) {
	s := r.s
	obj := s.Object()
	for obj.Next() {
		switch {
		case obj.Is("task"):
			r.fail(s.IntInto(&p.Task))
		case obj.Is("name"):
			var name string
			r.fail(s.StringInto(&name))
		case obj.Is("proc"):
			r.fail(s.IntInto(&p.Proc))
		case obj.Is("start"):
			r.fail(s.FloatInto(&p.Start))
		case obj.Is("finish"):
			r.fail(s.FloatInto(&p.Finish))
		case obj.Is("duplicate"):
			r.fail(s.BoolInto(&p.Duplicate))
		default:
			s.Skip()
		}
	}
}
