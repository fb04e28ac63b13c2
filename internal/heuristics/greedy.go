package heuristics

import (
	"fmt"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/sched"
)

// This file adds the classic greedy ready-set heuristics — MCT, Min-Min,
// and Max-Min — adapted from independent-task scheduling to workflow DAGs
// by restricting them to the current ready set. They are not part of the
// paper's comparison but are standard reference points for any HCE
// scheduling library and serve as weak baselines in the test suite.

// greedyRun factors the shared dynamic loop: maintain the ready set, let
// pick choose the next task (given each ready task's best estimate), and
// commit it. Estimates use insertion-based placement, the stronger and more
// common choice for these heuristics.
func greedyRun(name string, pr *sched.Problem, pick func(best []sched.Estimate) int) (*sched.Schedule, error) {
	defer obs.StartSolve(name).Stop()
	pr = pr.Normalize()
	g := pr.G
	s := sched.NewSchedule(pr)
	remaining := make([]int, g.NumTasks())
	var ready []dag.TaskID
	for t := 0; t < g.NumTasks(); t++ {
		remaining[t] = g.InDegree(dag.TaskID(t))
		if remaining[t] == 0 {
			ready = append(ready, dag.TaskID(t))
		}
	}
	for len(ready) > 0 {
		best := make([]sched.Estimate, len(ready))
		for i, t := range ready {
			e, err := s.BestEFT(t, sched.InsertionPolicy)
			if err != nil {
				return nil, err
			}
			best[i] = e
		}
		idx := pick(best)
		if idx < 0 || idx >= len(ready) {
			return nil, fmt.Errorf("heuristics: %s picked out-of-range index %d", name, idx)
		}
		chosen := best[idx]
		if err := s.Commit(chosen); err != nil {
			return nil, err
		}
		ready = append(ready[:idx], ready[idx+1:]...)
		for _, a := range g.Succs(chosen.Task) {
			remaining[a.Task]--
			if remaining[a.Task] == 0 {
				ready = insertSorted(ready, a.Task)
			}
		}
	}
	if !s.Complete() {
		return nil, errStalled(name, s)
	}
	return s, nil
}

// errStalled reports an incomplete dynamic run (defensive; cannot happen
// for well-formed DAGs).
func errStalled(name string, s *sched.Schedule) error {
	return fmt.Errorf("heuristics: %s stalled with %d/%d tasks placed", name, s.NumPlaced(), s.Problem().NumTasks())
}

// MCT (Minimum Completion Time) dispatches ready tasks in task-ID order,
// each to its minimum-EFT processor — the simplest dynamic baseline.
type MCT struct{}

// NewMCT returns the MCT scheduler.
func NewMCT() *MCT { return &MCT{} }

// Name implements sched.Algorithm.
func (*MCT) Name() string { return "MCT" }

// Schedule implements sched.Algorithm.
func (*MCT) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	return greedyRun("MCT", pr, func([]sched.Estimate) int { return 0 })
}

// MinMin repeatedly starts the ready task with the *smallest* best EFT —
// finish the quick work first, keeping processors busy.
type MinMin struct{}

// NewMinMin returns the Min-Min scheduler.
func NewMinMin() *MinMin { return &MinMin{} }

// Name implements sched.Algorithm.
func (*MinMin) Name() string { return "MinMin" }

// Schedule implements sched.Algorithm.
func (*MinMin) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	return greedyRun("MinMin", pr, func(best []sched.Estimate) int {
		idx := 0
		for i, e := range best {
			if e.EFT < best[idx].EFT {
				idx = i
			}
		}
		return idx
	})
}

// MaxMin repeatedly starts the ready task with the *largest* best EFT —
// push the long poles early so they do not dominate the tail.
type MaxMin struct{}

// NewMaxMin returns the Max-Min scheduler.
func NewMaxMin() *MaxMin { return &MaxMin{} }

// Name implements sched.Algorithm.
func (*MaxMin) Name() string { return "MaxMin" }

// Schedule implements sched.Algorithm.
func (*MaxMin) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	return greedyRun("MaxMin", pr, func(best []sched.Estimate) int {
		idx := 0
		for i, e := range best {
			if e.EFT > best[idx].EFT {
				idx = i
			}
		}
		return idx
	})
}
