// Package cluster implements the clustering-heuristic family the paper's
// Related Work surveys (Section II-C: LCM, DSC, CASS): schedulers that
// first group tasks into clusters on an unbounded set of virtual processors
// by zeroing expensive communication edges, then fold the clusters onto the
// real bounded processor set.
//
// The implementation follows Dominant Sequence Clustering (Yang &
// Gerasoulis 1994) in its standard adaptation to heterogeneous platforms:
// clustering runs on mean execution and communication costs; the resulting
// clusters are merged onto the p real processors by load-balanced wrapping;
// tasks are finally placed in blevel order on their assigned processor with
// avail-based timing. The paper dismisses this family as "more complex ...
// impractical to use" — having it runnable lets that claim be measured.
package cluster

import (
	"math"
	"sort"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// DSC is the Dominant Sequence Clustering scheduler.
type DSC struct{}

// NewDSC returns the DSC scheduler.
func NewDSC() *DSC { return &DSC{} }

// Name implements sched.Algorithm.
func (*DSC) Name() string { return "DSC" }

// Schedule implements sched.Algorithm.
func (*DSC) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	defer obs.StartSolve("DSC").Stop()
	pr = pr.Normalize()
	clusters, err := clusterize(pr)
	if err != nil {
		return nil, err
	}
	assign := foldClusters(pr, clusters)
	return place(pr, assign)
}

// clusterize performs the edge-zeroing pass: tasks are visited in
// topological order; each task either joins the cluster of the parent whose
// zeroed edge minimises the task's top level (tlevel), or starts a new
// cluster when no merge lowers its tlevel. Cluster serialisation is
// respected: a cluster's tasks execute back to back, so joining a busy
// cluster delays the task by the cluster's accumulated finish time.
func clusterize(pr *sched.Problem) ([]int, error) {
	g := pr.G
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	mean := func(t dag.TaskID) float64 { return pr.W.Mean(int(t)) }

	n := g.NumTasks()
	clusterOf := make([]int, n)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	// Per-cluster bookkeeping under mean costs.
	var clusterFinish []float64 // when the cluster's last task completes
	tlevel := make([]float64, n)
	finish := make([]float64, n)

	for _, t := range order {
		// tlevel if t starts a fresh cluster: bounded by remote arrivals.
		alone := 0.0
		for _, a := range g.Preds(t) {
			if v := finish[a.Task] + pr.MeanComm(a.Data); v > alone {
				alone = v
			}
		}
		bestCluster, bestStart := -1, alone
		// Try joining each distinct parent cluster.
		tried := map[int]bool{}
		for _, a := range g.Preds(t) {
			c := clusterOf[a.Task]
			if c < 0 || tried[c] {
				continue
			}
			tried[c] = true
			start := clusterFinish[c] // serialised behind the cluster
			for _, b := range g.Preds(t) {
				arr := finish[b.Task]
				if clusterOf[b.Task] != c {
					arr += pr.MeanComm(b.Data)
				}
				if arr > start {
					start = arr
				}
			}
			// Strict improvement keeps the pass monotone (DSC's
			// non-increasing dominant-sequence guarantee in spirit).
			if start < bestStart {
				bestStart, bestCluster = start, c
			}
		}
		if bestCluster < 0 {
			bestCluster = len(clusterFinish)
			clusterFinish = append(clusterFinish, 0)
		}
		clusterOf[t] = bestCluster
		tlevel[t] = bestStart
		finish[t] = bestStart + mean(t)
		if finish[t] > clusterFinish[bestCluster] {
			clusterFinish[bestCluster] = finish[t]
		}
	}
	return clusterOf, nil
}

// foldClusters maps the (possibly many) clusters onto the real processors:
// clusters are sorted by total mean work, heaviest first, and each is
// assigned to the currently least-loaded processor (classic LPT folding).
// The heterogeneity twist: a cluster's work on processor q is its actual
// total execution time there, so the "least-loaded" comparison uses real
// costs.
func foldClusters(pr *sched.Problem, clusterOf []int) []platform.Proc {
	nClusters := 0
	for _, c := range clusterOf {
		if c+1 > nClusters {
			nClusters = c + 1
		}
	}
	members := make([][]dag.TaskID, nClusters)
	meanWork := make([]float64, nClusters)
	for t, c := range clusterOf {
		members[c] = append(members[c], dag.TaskID(t))
		meanWork[c] += pr.W.Mean(t)
	}
	idx := make([]int, nClusters)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		if meanWork[idx[i]] != meanWork[idx[j]] {
			return meanWork[idx[i]] > meanWork[idx[j]]
		}
		return idx[i] < idx[j]
	})

	load := make([]float64, pr.NumProcs())
	assign := make([]platform.Proc, len(clusterOf))
	for _, c := range idx {
		// Pick the processor where load + this cluster's actual work is
		// minimal.
		best, bestVal := platform.Proc(0), math.Inf(1)
		for q := 0; q < pr.NumProcs(); q++ {
			work := 0.0
			for _, t := range members[c] {
				work += pr.Exec(t, platform.Proc(q))
			}
			if v := load[q] + work; v < bestVal {
				bestVal, best = v, platform.Proc(q)
			}
		}
		for _, t := range members[c] {
			assign[t] = best
			load[best] += pr.Exec(t, best)
		}
	}
	return assign
}

// place commits tasks in blevel order onto their assigned processors with
// avail-based timing (ready tasks only, so precedence holds).
func place(pr *sched.Problem, assign []platform.Proc) (*sched.Schedule, error) {
	g := pr.G
	blevel, err := g.DownwardDistance(func(t dag.TaskID) float64 { return pr.W.Mean(int(t)) },
		func(_, _ dag.TaskID, data float64) float64 { return pr.MeanComm(data) })
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
	for len(ready) > 0 {
		// Highest blevel first (dominant sequence first).
		best := 0
		for i, t := range ready[1:] {
			if blevel[t] > blevel[ready[best]] || (blevel[t] == blevel[ready[best]] && t < ready[best]) {
				best = i + 1
			}
		}
		t := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		e, err := s.Estimate(t, assign[t], sched.Policy{})
		if err != nil {
			return nil, err
		}
		if err := s.Commit(e); err != nil {
			return nil, err
		}
		for _, a := range g.Succs(t) {
			remaining[a.Task]--
			if remaining[a.Task] == 0 {
				ready = append(ready, a.Task)
			}
		}
	}
	return s, nil
}
