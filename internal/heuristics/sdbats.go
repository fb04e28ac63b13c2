package heuristics

import (
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// SDBATS is the Standard Deviation Based Task Scheduling algorithm (Munir
// et al. 2013). It computes upward ranks with each task weighted by the
// standard deviation of its execution times across processors (rather than
// the mean, as in HEFT), schedules in rank order with insertion-based
// minimum EFT, and duplicates the entry task onto every processor up front
// so each processor can consume entry output locally.
//
// With unconditional entry duplication this reproduces the makespan of 74
// the paper reports for SDBATS on the Fig. 1 example (worked by hand; see
// EXPERIMENTS.md).
type SDBATS struct {
	// Pol is the placement policy; canonical SDBATS uses insertion.
	Pol sched.Policy
}

// NewSDBATS returns the canonical (insertion-based) SDBATS scheduler.
func NewSDBATS() *SDBATS { return &SDBATS{Pol: sched.InsertionPolicy} }

// Name implements sched.Algorithm.
func (*SDBATS) Name() string { return "SDBATS" }

// Schedule implements sched.Algorithm.
func (sd *SDBATS) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	defer obs.StartSolve("SDBATS").Stop()
	pr = pr.Normalize()
	rank, err := UpwardRank(pr, sigmaNode(pr))
	if err != nil {
		return nil, err
	}
	order, err := orderByRankDesc(pr.G, rank)
	if err != nil {
		return nil, err
	}

	s := sched.NewSchedule(pr)
	entry := pr.G.Entry()
	for _, t := range order {
		best, err := s.BestEFT(t, sd.Pol)
		if err != nil {
			return nil, err
		}
		if err := s.Commit(best); err != nil {
			return nil, err
		}
		if t == entry && !pr.G.Task(entry).Pseudo {
			// Duplicate the freshly placed entry task on every other
			// processor, starting at time 0.
			for p := 0; p < pr.NumProcs(); p++ {
				proc := platform.Proc(p)
				if proc == best.Proc {
					continue
				}
				if err := s.PlaceDuplicate(entry, proc, 0); err != nil {
					return nil, err
				}
			}
		}
	}
	return s, nil
}
