package heuristics

import (
	"math"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// DHEFT is Duplication-based HEFT, the task-duplication representative the
// paper's Related Work (Section II-B) describes: "The Duplication Based
// Heterogeneous Earliest Finish Time (DHEFT) introduces the concept of
// duplication in HEFT algorithm that reduces the makespan significantly"
// (after Zhang, Inoguchi, Shen 2004).
//
// Tasks are prioritised and dispatched exactly like HEFT (upward rank on
// mean costs, insertion-based placement). Additionally, when evaluating
// task t on processor p, if t's start is bound by the data arrival from its
// *critical parent* (the parent whose output arrives last), DHEFT tries to
// duplicate that parent into an idle slot on p: the duplicate must itself
// respect the parent's own input arrivals, and is kept only when it
// strictly lowers t's EFT on p. One duplication level is considered per
// placement (no recursive chains), which is the standard low-cost variant.
type DHEFT struct{}

// NewDHEFT returns the DHEFT scheduler.
func NewDHEFT() *DHEFT { return &DHEFT{} }

// Name implements sched.Algorithm.
func (*DHEFT) Name() string { return "DHEFT" }

// dupPlan describes one candidate duplication for committing.
type dupPlan struct {
	parent dag.TaskID
	start  float64
}

// dheftEstimate evaluates t on p, optionally with a critical-parent
// duplication. It returns the chosen estimate and the duplication to
// materialise (nil if none).
func dheftEstimate(s *sched.Schedule, t dag.TaskID, p platform.Proc) (sched.Estimate, *dupPlan, error) {
	base, err := s.Estimate(t, p, sched.InsertionPolicy)
	if err != nil {
		return sched.Estimate{}, nil, err
	}
	g := s.Problem().G

	// Find the critical parent: the one whose arrival on p equals Ready.
	var critical dag.TaskID = dag.None
	worst := -1.0
	for _, a := range g.Preds(t) {
		arr := math.Inf(1)
		for _, c := range s.Copies(a.Task) {
			if v := c.Finish + s.Problem().Comm(a.Data, c.Proc, p); v < arr {
				arr = v
			}
		}
		if arr > worst {
			worst, critical = arr, a.Task
		}
	}
	if critical == dag.None || s.HasCopyOn(critical, p) {
		return base, nil, nil
	}
	// The duplication can only help when the critical arrival binds the
	// start time (otherwise the processor or another parent is the
	// bottleneck anyway).
	if worst < base.EST-1e-12 {
		return base, nil, nil
	}

	// Earliest feasible start of the duplicate on p: when the parent's own
	// inputs reach p (the parent's parents are already scheduled because t
	// is dispatched in precedence order).
	dupReady := 0.0
	for _, a := range g.Preds(critical) {
		arr := math.Inf(1)
		for _, c := range s.Copies(a.Task) {
			if v := c.Finish + s.Problem().Comm(a.Data, c.Proc, p); v < arr {
				arr = v
			}
		}
		if math.IsInf(arr, 1) {
			return base, nil, nil // defensive: unscheduled grandparent
		}
		if arr > dupReady {
			dupReady = arr
		}
	}
	dupDur := s.Problem().Exec(critical, p)
	dupStart := s.EarliestFit(p, dupReady, dupDur)
	dupFinish := dupStart + dupDur

	// Recompute t's ready time with the duplicate virtually in place: the
	// critical parent now arrives at min(remote arrival, local duplicate).
	ready := math.Min(dupFinish, worst)
	for _, a := range g.Preds(t) {
		if a.Task == critical {
			continue
		}
		arr := math.Inf(1)
		for _, c := range s.Copies(a.Task) {
			if v := c.Finish + s.Problem().Comm(a.Data, c.Proc, p); v < arr {
				arr = v
			}
		}
		if arr > ready {
			ready = arr
		}
	}

	// The duplicate occupies its slot, so search t's slot as if it were
	// taken: the earliest fit at or after max(ready, dupFinish) that does
	// not intersect [dupStart, dupFinish).
	dur := s.Problem().Exec(t, p)
	start := s.EarliestFit(p, ready, dur)
	if start < dupFinish && start+dur > dupStart {
		start = s.EarliestFit(p, dupFinish, dur)
	}
	if eft := start + dur; eft < base.EFT-1e-12 {
		est := sched.Estimate{Task: t, Proc: p, Ready: ready, EST: start, EFT: eft}
		return est, &dupPlan{parent: critical, start: dupStart}, nil
	}
	return base, nil, nil
}

// Schedule implements sched.Algorithm.
func (*DHEFT) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	defer obs.StartSolve("DHEFT").Stop()
	pr = pr.Normalize()
	rank, err := UpwardRank(pr, meanNode(pr))
	if err != nil {
		return nil, err
	}
	order, err := orderByRankDesc(pr.G, rank)
	if err != nil {
		return nil, err
	}
	s := sched.NewSchedule(pr)
	for _, t := range order {
		var best sched.Estimate
		var bestDup *dupPlan
		for p := 0; p < pr.NumProcs(); p++ {
			e, dup, err := dheftEstimate(s, t, platform.Proc(p))
			if err != nil {
				return nil, err
			}
			if p == 0 || e.EFT < best.EFT {
				best, bestDup = e, dup
			}
		}
		if bestDup != nil {
			if err := s.PlaceDuplicate(bestDup.parent, best.Proc, bestDup.start); err != nil {
				return nil, err
			}
		}
		if err := s.Place(best.Task, best.Proc, best.EST); err != nil {
			return nil, err
		}
	}
	return s, nil
}
