package heuristics

import (
	"math"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// DLS is Dynamic Level Scheduling (Sih & Lee, TPDS 1993) — a classic
// dynamic list scheduler included beyond the paper's comparison set because
// it is the closest published ancestor of HDLTS's "recompute priorities
// against current processor state" idea.
//
// At every step DLS evaluates all (ready task, processor) pairs and picks
// the pair with the largest dynamic level
//
//	DL(t, p) = SL(t) − EST(t, p) + Δ(t, p)
//
// where SL is the static level (longest mean-execution-time path from t to
// an exit, communication ignored), EST is the avail-based earliest start
// time, and Δ(t, p) = w̄(t) − w(t, p) rewards placing a task on a processor
// that runs it faster than average.
type DLS struct{}

// NewDLS returns the DLS scheduler.
func NewDLS() *DLS { return &DLS{} }

// Name implements sched.Algorithm.
func (*DLS) Name() string { return "DLS" }

// Schedule implements sched.Algorithm.
func (*DLS) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	defer obs.StartSolve("DLS").Stop()
	pr = pr.Normalize()
	g := pr.G
	sl, err := g.DownwardDistance(meanNode(pr), dag.ZeroEdges)
	if err != nil {
		return nil, err
	}

	s := sched.NewSchedule(pr)
	remaining := make([]int, g.NumTasks())
	var ready []dag.TaskID
	for t := 0; t < g.NumTasks(); t++ {
		remaining[t] = g.InDegree(dag.TaskID(t))
		if remaining[t] == 0 {
			ready = append(ready, dag.TaskID(t))
		}
	}

	pol := sched.Policy{} // avail-based, no duplication, per the original
	for len(ready) > 0 {
		bestDL := math.Inf(-1)
		var best sched.Estimate
		bestIdx := -1
		for i, t := range ready {
			mean := pr.W.Mean(int(t))
			for p := 0; p < pr.NumProcs(); p++ {
				e, err := s.Estimate(t, platform.Proc(p), pol)
				if err != nil {
					return nil, err
				}
				dl := sl[t] - e.EST + (mean - pr.Exec(t, platform.Proc(p)))
				// Ties break toward the smaller task ID then the lower
				// processor index (ready is kept in ascending ID order and
				// processors are scanned in order, so strict > suffices).
				if dl > bestDL {
					bestDL, best, bestIdx = dl, e, i
				}
			}
		}
		if err := s.Commit(best); err != nil {
			return nil, err
		}
		ready = append(ready[:bestIdx], ready[bestIdx+1:]...)
		for _, a := range g.Succs(best.Task) {
			remaining[a.Task]--
			if remaining[a.Task] == 0 {
				ready = insertSorted(ready, a.Task)
			}
		}
	}
	if !s.Complete() {
		return nil, errStalled("DLS", s)
	}
	return s, nil
}

// insertSorted keeps the ready list ascending by task ID.
func insertSorted(ready []dag.TaskID, t dag.TaskID) []dag.TaskID {
	i := len(ready)
	for i > 0 && ready[i-1] > t {
		i--
	}
	ready = append(ready, 0)
	copy(ready[i+1:], ready[i:])
	ready[i] = t
	return ready
}
