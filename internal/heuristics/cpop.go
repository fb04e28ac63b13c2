package heuristics

import (
	"math"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// CPOP is the Critical-Path-on-Processor algorithm (Topcuoglu, Hariri, Wu
// 2002). Task priority is rank_u + rank_d; the tasks forming the critical
// path (priority equal to the entry task's, walked along successors) are all
// pinned to the single processor that minimises the path's total execution
// time, while every other task goes to its minimum insertion-based EFT
// processor. Ready tasks are dispatched from a priority queue.
type CPOP struct {
	// Pol is the placement policy; canonical CPOP uses insertion.
	Pol sched.Policy
}

// NewCPOP returns the canonical (insertion-based) CPOP scheduler.
func NewCPOP() *CPOP { return &CPOP{Pol: sched.InsertionPolicy} }

// Name implements sched.Algorithm.
func (*CPOP) Name() string { return "CPOP" }

// Schedule implements sched.Algorithm.
func (c *CPOP) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	defer obs.StartSolve("CPOP").Stop()
	pr = pr.Normalize()
	g := pr.G
	up, err := UpwardRank(pr, meanNode(pr))
	if err != nil {
		return nil, err
	}
	down, err := DownwardRank(pr)
	if err != nil {
		return nil, err
	}
	prio := make([]float64, g.NumTasks())
	for i := range prio {
		prio[i] = up[i] + down[i]
	}

	// Walk the critical path: start at the entry; repeatedly follow the
	// successor whose priority equals the path length |CP| (fp-tolerant,
	// preferring the largest-priority successor).
	entry := g.Entry()
	cpLen := prio[entry]
	onCP := make([]bool, g.NumTasks())
	const tol = 1e-9
	for t := entry; ; {
		onCP[t] = true
		var next dag.TaskID = dag.None
		bestPrio := math.Inf(-1)
		for _, a := range g.Succs(t) {
			if prio[a.Task] > bestPrio {
				bestPrio, next = prio[a.Task], a.Task
			}
		}
		if next == dag.None {
			break
		}
		// The true CP successor has priority == |CP| up to rounding; the
		// max-priority successor is that task.
		_ = cpLen
		if bestPrio < -tol {
			break
		}
		t = next
	}

	// p_CP minimises the total execution time of the CP tasks.
	bestProc, bestSum := platform.Proc(0), math.Inf(1)
	for p := 0; p < pr.NumProcs(); p++ {
		sum := 0.0
		for t := 0; t < g.NumTasks(); t++ {
			if onCP[t] {
				sum += pr.Exec(dag.TaskID(t), platform.Proc(p))
			}
		}
		if sum < bestSum {
			bestSum, bestProc = sum, platform.Proc(p)
		}
	}

	s := sched.NewSchedule(pr)
	remaining := make([]int, g.NumTasks())
	q := &taskHeap{prio: prio}
	for t := 0; t < g.NumTasks(); t++ {
		remaining[t] = g.InDegree(dag.TaskID(t))
		if remaining[t] == 0 {
			q.push(dag.TaskID(t))
		}
	}
	for q.len() > 0 {
		t := q.pop()
		var est sched.Estimate
		if onCP[t] {
			est, err = s.Estimate(t, bestProc, c.Pol)
		} else {
			est, err = s.BestEFT(t, c.Pol)
		}
		if err != nil {
			return nil, err
		}
		if err := s.Commit(est); err != nil {
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
