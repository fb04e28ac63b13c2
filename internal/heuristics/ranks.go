// Package heuristics implements the five published list-scheduling baselines
// the paper evaluates HDLTS against: HEFT and CPOP (Topcuoglu, Hariri, Wu,
// TPDS 2002), PETS (Ilavarasan, Thambidurai, Mahilmannan, ISPDC 2005), PEFT
// (Arabnejad, Barbosa, TPDS 2014), and SDBATS (Munir et al., IPDPSW 2013).
// All operate on the shared sched substrate, so schedules from every
// algorithm validate under identical feasibility rules.
package heuristics

import (
	"slices"

	"hdlts/internal/dag"
	"hdlts/internal/sched"
)

// meanNode returns the node-weight function w̄(t) = mean execution time of t
// across processors (Eq. 1).
func meanNode(pr *sched.Problem) dag.WeightFunc {
	return func(t dag.TaskID) float64 { return pr.W.Mean(int(t)) }
}

// meanEdge returns the edge-weight function c̄(u,v) = mean communication time
// across distinct processor pairs (the data volume itself under uniform
// bandwidth).
func meanEdge(pr *sched.Problem) dag.EdgeWeightFunc {
	return func(_, _ dag.TaskID, data float64) float64 { return pr.MeanComm(data) }
}

// sigmaNode returns the node-weight function σ(t) = sample standard
// deviation of t's execution times across processors (SDBATS's key weight).
func sigmaNode(pr *sched.Problem) dag.WeightFunc {
	return func(t dag.TaskID) float64 { return pr.W.SampleStdDev(int(t)) }
}

// UpwardRank computes rank_u for every task under the given node weight and
// mean communication edge weight:
//
//	rank_u(t) = w(t) + max over successors s of (c̄(t,s) + rank_u(s))
//
// HEFT and CPOP use w = mean cost; SDBATS uses w = σ of costs.
func UpwardRank(pr *sched.Problem, node dag.WeightFunc) ([]float64, error) {
	return pr.G.DownwardDistance(node, meanEdge(pr))
}

// DownwardRank computes rank_d for every task (CPOP):
//
//	rank_d(t) = max over predecessors u of (rank_d(u) + w̄(u) + c̄(u,t))
//
// with rank_d(entry) = 0.
func DownwardRank(pr *sched.Problem) ([]float64, error) {
	order, err := pr.G.TopoOrder()
	if err != nil {
		return nil, err
	}
	node := meanNode(pr)
	edge := meanEdge(pr)
	rank := make([]float64, pr.NumTasks())
	for _, t := range order {
		best := 0.0
		for _, a := range pr.G.Preds(t) {
			if v := rank[a.Task] + node(a.Task) + edge(a.Task, t, a.Data); v > best {
				best = v
			}
		}
		rank[t] = best
	}
	return rank, nil
}

// orderByRankDesc returns task IDs sorted by descending rank. The sort is
// stable over a topological base order, so equal-rank tasks (e.g. zero-cost
// pseudo entries) keep a precedence-compatible relative order, making the
// result always a valid scheduling list.
func orderByRankDesc(g *dag.Graph, rank []float64) ([]dag.TaskID, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(order, func(a, b dag.TaskID) int {
		switch {
		case rank[a] > rank[b]:
			return -1
		case rank[a] < rank[b]:
			return 1
		}
		return 0
	})
	return order, nil
}

// scheduleByList places tasks in the given order, each on its minimum-EFT
// processor under the policy. The order must be precedence-compatible.
//
//hdlts:hotpath
func scheduleByList(pr *sched.Problem, order []dag.TaskID, pol sched.Policy) (*sched.Schedule, error) {
	s := sched.NewSchedule(pr)
	for _, t := range order {
		best, err := s.BestEFT(t, pol)
		if err != nil {
			return nil, err
		}
		if err := s.Commit(best); err != nil {
			return nil, err
		}
	}
	return s, nil
}
