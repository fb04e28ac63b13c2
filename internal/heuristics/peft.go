package heuristics

import (
	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// PEFT is the Predict Earliest Finish Time algorithm (Arabnejad, Barbosa
// 2014). It precomputes the Optimistic Cost Table
//
//	OCT(t, p) = max over successors s of
//	            min over processors q of ( OCT(s, q) + W(s, q) + c̄(t,s) if q ≠ p else 0 )
//
// (zero for the exit task), prioritises ready tasks by rank_oct(t) = mean
// over processors of OCT(t, p), and maps each to the processor minimising
// the *optimistic* EFT, O_EFT(t, p) = EFT(t, p) + OCT(t, p), with the
// insertion policy. Complexity O(V² · P).
type PEFT struct {
	// Pol is the placement policy; canonical PEFT uses insertion.
	Pol sched.Policy
}

// NewPEFT returns the canonical (insertion-based) PEFT scheduler.
func NewPEFT() *PEFT { return &PEFT{Pol: sched.InsertionPolicy} }

// Name implements sched.Algorithm.
func (*PEFT) Name() string { return "PEFT" }

// oct computes the optimistic cost table as a flat row-major n×p slice:
// OCT(t, p) lives at table[t*p+p]. One allocation instead of n+1, and the
// inner recurrence runs in O(E·P) rather than O(E·P²): for each successor
// the per-processor candidate costs c(q) = OCT(s, q) + W(s, q) are computed
// once, and min over q of (c(q) + c̄ if q ≠ pk) collapses to
// min(c(pk), m + c̄) where m is the minimum of c over q ≠ pk — the overall
// minimum m1, or the second minimum m2 when pk is itself the argmin.
func oct(pr *sched.Problem) ([]float64, error) {
	g := pr.G
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n, p := g.NumTasks(), pr.NumProcs()
	table := make([]float64, n*p)
	cand := make([]float64, p) // c(q) scratch for the current successor
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		row := table[int(t)*p : int(t)*p+p]
		for _, a := range g.Succs(t) {
			s := a.Task
			comm := pr.MeanComm(a.Data)
			srow := table[int(s)*p : int(s)*p+p]
			m1, m2 := -1.0, -1.0
			p1 := -1
			for q := 0; q < p; q++ {
				c := srow[q] + pr.Exec(s, platform.Proc(q))
				cand[q] = c
				switch {
				case m1 < 0 || c < m1:
					m2, m1, p1 = m1, c, q
				case m2 < 0 || c < m2:
					m2 = c
				}
			}
			for pk := 0; pk < p; pk++ {
				m := m1
				if pk == p1 {
					m = m2
				}
				minCost := cand[pk]
				if m >= 0 && m+comm < minCost {
					minCost = m + comm
				}
				if minCost > row[pk] {
					row[pk] = minCost
				}
			}
		}
	}
	return table, nil
}

// Schedule implements sched.Algorithm.
func (pe *PEFT) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	defer obs.StartSolve("PEFT").Stop()
	pr = pr.Normalize()
	g := pr.G
	np := pr.NumProcs()
	table, err := oct(pr)
	if err != nil {
		return nil, err
	}
	rank := make([]float64, g.NumTasks())
	for t := range rank {
		sum := 0.0
		for _, v := range table[t*np : t*np+np] {
			sum += v
		}
		rank[t] = sum / float64(np)
	}

	s := sched.NewSchedule(pr)
	remaining := make([]int, g.NumTasks())
	q := &taskHeap{prio: rank}
	for t := 0; t < g.NumTasks(); t++ {
		remaining[t] = g.InDegree(dag.TaskID(t))
		if remaining[t] == 0 {
			q.push(dag.TaskID(t))
		}
	}
	for q.len() > 0 {
		t := q.pop()
		var best sched.Estimate
		bestOEFT := -1.0
		for p := 0; p < np; p++ {
			e, err := s.Estimate(t, platform.Proc(p), pe.Pol)
			if err != nil {
				return nil, err
			}
			if oeft := e.EFT + table[int(t)*np+p]; bestOEFT < 0 || oeft < bestOEFT {
				bestOEFT, best = oeft, e
			}
		}
		if err := s.Commit(best); err != nil {
			return nil, err
		}
		for _, a := range g.Succs(t) {
			remaining[a.Task]--
			if remaining[a.Task] == 0 {
				q.push(a.Task)
			}
		}
	}
	return s, nil
}
