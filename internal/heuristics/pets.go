package heuristics

import (
	"math"
	"sort"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/sched"
)

// PETS is the Performance Effective Task Scheduling algorithm (Ilavarasan,
// Thambidurai, Mahilmannan 2005). Tasks are grouped into precedence levels;
// within a level each task's rank is
//
//	rank(t) = round( ACC(t) + DTC(t) + RPT(t) )
//
// where ACC is the average computation cost (Eq. 1), DTC the total outgoing
// communication cost (data transfer cost), and RPT the highest rank among
// the task's immediate predecessors (data receiving path). Levels are
// processed in order, tasks within a level by descending rank, each mapped
// to its minimum insertion-based EFT processor. Complexity
// O((V+E)(P+log V)).
type PETS struct {
	// Pol is the placement policy; canonical PETS uses insertion.
	Pol sched.Policy
}

// NewPETS returns the canonical (insertion-based) PETS scheduler.
func NewPETS() *PETS { return &PETS{Pol: sched.InsertionPolicy} }

// Name implements sched.Algorithm.
func (*PETS) Name() string { return "PETS" }

// Schedule implements sched.Algorithm.
func (p *PETS) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	defer obs.StartSolve("PETS").Stop()
	pr = pr.Normalize()
	g := pr.G
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}

	rank := make([]float64, g.NumTasks())
	order := make([]dag.TaskID, 0, g.NumTasks())
	for _, level := range levels {
		for _, t := range level {
			acc := pr.W.Mean(int(t))
			dtc := 0.0
			for _, a := range g.Succs(t) {
				dtc += pr.MeanComm(a.Data)
			}
			rpt := 0.0
			for _, a := range g.Preds(t) {
				if rank[a.Task] > rpt {
					rpt = rank[a.Task]
				}
			}
			rank[t] = math.Round(acc + dtc + rpt)
		}
		sorted := append([]dag.TaskID(nil), level...)
		sort.SliceStable(sorted, func(i, j int) bool {
			if rank[sorted[i]] != rank[sorted[j]] {
				return rank[sorted[i]] > rank[sorted[j]]
			}
			return sorted[i] < sorted[j]
		})
		order = append(order, sorted...)
	}
	return scheduleByList(pr, order, p.Pol)
}
