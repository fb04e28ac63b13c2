package heuristics

import (
	"hdlts/internal/obs"
	"hdlts/internal/sched"
)

// HEFT is the Heterogeneous Earliest Finish Time algorithm (Topcuoglu,
// Hariri, Wu 2002). Tasks are prioritised by upward rank computed over mean
// computation and communication costs, then mapped in rank order to the
// processor minimising the insertion-based earliest finish time. Complexity
// O(V² · P). On the paper's Fig. 1 example HEFT yields makespan 80.
type HEFT struct {
	// Pol is the placement policy; canonical HEFT uses insertion. The
	// avail-based variant exists for the uniform-placement ablation
	// (DESIGN.md §4).
	Pol sched.Policy
}

// NewHEFT returns the canonical (insertion-based) HEFT scheduler.
func NewHEFT() *HEFT { return &HEFT{Pol: sched.InsertionPolicy} }

// Name implements sched.Algorithm.
func (*HEFT) Name() string { return "HEFT" }

// Schedule implements sched.Algorithm.
func (h *HEFT) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	defer obs.StartSolve("HEFT").Stop()
	pr = pr.Normalize()
	rank, err := UpwardRank(pr, meanNode(pr))
	if err != nil {
		return nil, err
	}
	order, err := orderByRankDesc(pr.G, rank)
	if err != nil {
		return nil, err
	}
	return scheduleByList(pr, order, h.Pol)
}
