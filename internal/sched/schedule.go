package sched

import (
	"fmt"
	"math"

	"hdlts/internal/dag"
	"hdlts/internal/platform"
)

// Placement records where one copy of a task executes.
type Placement struct {
	Task      dag.TaskID
	Proc      platform.Proc
	Start     float64
	Finish    float64
	Duplicate bool
}

// unplaced marks a task without a primary placement yet.
const unplaced platform.Proc = -1

// Schedule is a (possibly partial) mapping of workflow tasks onto the
// processors of a Problem, including any duplicated entry-task copies. All
// mutation goes through Place/PlaceDuplicate, which maintain per-processor
// timelines and reject overlapping reservations, so an accepted schedule is
// structurally sound by construction; Validate additionally re-checks
// precedence and communication feasibility from first principles.
type Schedule struct {
	prob      *Problem
	primary   []Placement   // indexed by task; Proc == unplaced when absent
	dups      [][]Placement // indexed by task; duplicated copies
	timelines []timeline    // indexed by processor
	placed    int
}

// NewSchedule returns an empty schedule for the problem.
func NewSchedule(pr *Problem) *Schedule {
	s := &Schedule{}
	s.Reset(pr)
	return s
}

// Reset empties the schedule and rebinds it to pr, retaining the backing
// storage of a previous solve where capacities allow. A long-running service
// scheduling a stream of similarly sized problems reuses one Schedule and
// pays no per-solve allocation; see HDLTS.ScheduleInto.
func (s *Schedule) Reset(pr *Problem) {
	n, p := pr.NumTasks(), pr.NumProcs()
	s.prob = pr
	s.placed = 0
	if cap(s.primary) < n {
		s.primary = make([]Placement, n)
	}
	s.primary = s.primary[:n]
	for i := range s.primary {
		s.primary[i] = Placement{Task: dag.TaskID(i), Proc: unplaced}
	}
	if cap(s.dups) < n {
		s.dups = make([][]Placement, n)
	}
	s.dups = s.dups[:n]
	for i := range s.dups {
		s.dups[i] = s.dups[i][:0]
	}
	if cap(s.timelines) < p {
		s.timelines = make([]timeline, p)
	}
	s.timelines = s.timelines[:p]
	for i := range s.timelines {
		s.timelines[i].reset()
	}
}

// Problem returns the problem this schedule maps.
func (s *Schedule) Problem() *Problem { return s.prob }

// Placed reports whether task t has its primary copy scheduled.
func (s *Schedule) Placed(t dag.TaskID) bool { return s.primary[t].Proc != unplaced }

// NumPlaced reports how many tasks have primary placements.
func (s *Schedule) NumPlaced() int { return s.placed }

// Complete reports whether every task has been scheduled.
func (s *Schedule) Complete() bool { return s.placed == s.prob.NumTasks() }

// PlacementOf returns the primary placement of t; ok is false if t is not
// yet scheduled.
func (s *Schedule) PlacementOf(t dag.TaskID) (Placement, bool) {
	p := s.primary[t]
	return p, p.Proc != unplaced
}

// AFT returns the actual finish time of task t's primary copy (Definition 4).
// It panics if t is unscheduled — callers must respect precedence order.
func (s *Schedule) AFT(t dag.TaskID) float64 {
	if !s.Placed(t) {
		panic(fmt.Sprintf("sched: AFT of unscheduled task %d", t))
	}
	return s.primary[t].Finish
}

// Copies returns every scheduled copy of t: the primary placement (if any)
// followed by duplicates in placement order.
func (s *Schedule) Copies(t dag.TaskID) []Placement {
	var out []Placement
	if s.Placed(t) {
		out = append(out, s.primary[t])
	}
	out = append(out, s.dups[t]...)
	return out
}

// HasCopyOn reports whether any copy of t runs on processor p.
func (s *Schedule) HasCopyOn(t dag.TaskID, p platform.Proc) bool {
	if s.Placed(t) && s.primary[t].Proc == p {
		return true
	}
	for _, d := range s.dups[t] {
		if d.Proc == p {
			return true
		}
	}
	return false
}

// Avail returns Avail(m_p): the time processor p finishes its last task.
func (s *Schedule) Avail(p platform.Proc) float64 { return s.timelines[p].avail() }

// FreeAt reports whether [start, start+dur) is idle on processor p.
func (s *Schedule) FreeAt(p platform.Proc, start, dur float64) bool {
	return s.timelines[p].freeAt(start, dur)
}

// EarliestFit returns the earliest insertion-policy start time >= ready for
// a task of the given duration on processor p.
func (s *Schedule) EarliestFit(p platform.Proc, ready, dur float64) float64 {
	return s.timelines[p].earliestFit(ready, dur)
}

// Place schedules the primary copy of t on processor p starting at start.
// Duration comes from the cost matrix. It rejects double placement and
// timeline overlap.
func (s *Schedule) Place(t dag.TaskID, p platform.Proc, start float64) error {
	if s.Placed(t) {
		return fmt.Errorf("sched: task %d already scheduled", t)
	}
	dur := s.prob.Exec(t, p)
	if err := s.timelines[p].insert(Slot{Start: start, End: start + dur, Task: t}); err != nil {
		return err
	}
	s.primary[t] = Placement{Task: t, Proc: p, Start: start, Finish: start + dur}
	s.placed++
	return nil
}

// Fix seeds an empty schedule with t as already placed on p, finishing at
// finish: a parent whose output is there, on no timeline. A solve resumed
// from a frontier fixes the tasks that ran or run, holds each processor
// until it is free (Hold), and maps the rest (core.HDLTS.Extend).
func (s *Schedule) Fix(t dag.TaskID, p platform.Proc, finish float64) {
	s.primary[t] = Placement{Task: t, Proc: p, Start: finish, Finish: finish}
	s.placed++
}

// Hold makes p's timeline one reservation [0, until), or up to its hold so
// far if that is later, so that nothing placed after it starts before
// until. Seeding calls it before anything is placed; its slot has Task
// dag.None.
func (s *Schedule) Hold(p platform.Proc, until float64) {
	tl := &s.timelines[p]
	until = max(until, tl.avail())
	tl.slots = append(tl.slots[:0], Slot{End: until, Task: dag.None})
	tl.maxEnd = append(tl.maxEnd[:0], until)
}

// PlaceDuplicate schedules a redundant copy of t on processor p starting at
// start. Duplicates of an already-duplicated-or-placed processor are
// rejected, as are overlaps.
func (s *Schedule) PlaceDuplicate(t dag.TaskID, p platform.Proc, start float64) error {
	if s.HasCopyOn(t, p) {
		return fmt.Errorf("sched: task %d already has a copy on processor %d", t, p)
	}
	dur := s.prob.Exec(t, p)
	if err := s.timelines[p].insert(Slot{Start: start, End: start + dur, Task: t, Duplicate: true}); err != nil {
		return err
	}
	s.dups[t] = append(s.dups[t], Placement{Task: t, Proc: p, Start: start, Finish: start + dur, Duplicate: true})
	return nil
}

// Makespan returns the overall schedule length: the maximum finish time of
// any primary task copy (equal to AFT(v_exit) for a complete normalised
// schedule, Definition 9). Zero for an empty schedule.
func (s *Schedule) Makespan() float64 {
	m := 0.0
	for i := range s.primary {
		if s.primary[i].Proc != unplaced && s.primary[i].Finish > m {
			m = s.primary[i].Finish
		}
	}
	return m
}

// ProcSlots returns a copy of processor p's occupied slots in start order.
func (s *Schedule) ProcSlots(p platform.Proc) []Slot { return s.timelines[p].snapshot() }

// NumDuplicates returns the total number of duplicated copies placed.
func (s *Schedule) NumDuplicates() int {
	n := 0
	for _, d := range s.dups {
		n += len(d)
	}
	return n
}

// Arrival returns the earliest time the output of parent u (with edge data
// volume data) can be available on processor p, considering every scheduled
// copy of u (primary and duplicates). +Inf when u has no copies yet. This is
// the non-allocating accessor behind ReadyTime; solvers probing tentative
// placements (e.g. the HDLTS lookahead) should use it instead of ranging
// over Copies, which allocates.
//
//hdlts:hotpath
func (s *Schedule) Arrival(u dag.TaskID, data float64, p platform.Proc) float64 {
	return s.arrivalFromCopies(u, data, p)
}

// arrivalFromCopies returns the earliest time the output of parent u (with
// edge data volume data) can be available on processor p, considering every
// scheduled copy of u. +Inf when u has no copies yet.
//
//hdlts:hotpath
func (s *Schedule) arrivalFromCopies(u dag.TaskID, data float64, p platform.Proc) float64 {
	arr := math.Inf(1)
	if s.Placed(u) {
		c := s.primary[u]
		if v := c.Finish + s.prob.Comm(data, c.Proc, p); v < arr {
			arr = v
		}
	}
	for _, c := range s.dups[u] {
		if v := c.Finish + s.prob.Comm(data, c.Proc, p); v < arr {
			arr = v
		}
	}
	return arr
}
