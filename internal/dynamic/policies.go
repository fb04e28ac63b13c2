package dynamic

import (
	"math"
	"sort"

	"hdlts/internal/core"
	"hdlts/internal/dag"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// OnlineHDLTS replays the HDLTS decision rule at run time: at every
// scheduling opportunity it computes, for each task in the current ready
// set, the estimated-EFT vector over the processors still alive, takes the
// penalty value (sample σ, Eq. 8), and starts the highest-PV task on its
// minimum-EFT processor. Estimates use the planned cost matrix; the
// executor bills realised costs — exactly the situation the paper's
// conclusion targets.
//
// Entry-task duplication is an offline optimisation (it needs to reserve
// the [0, w) prefix of a processor) and is not replayed online.
type OnlineHDLTS struct{}

// Name implements Policy.
func (OnlineHDLTS) Name() string { return "HDLTS-online" }

// Pick implements Policy.
func (OnlineHDLTS) Pick(st *State) (dag.TaskID, platform.Proc, bool) {
	return core.PickHDLTS(st.Ready, aliveProcs(st), st.EstimatedEFT)
}

// StaticMapping deploys a precomputed offline schedule as-is: every task
// runs on its planned processor, and per-processor order is preserved. If a
// task's planned processor has failed by the time the task becomes
// dispatchable, the task (and, transitively, everything queued behind it)
// is re-routed to the alive processor with the minimum estimated EFT — the
// minimal failover a static deployment would bolt on.
type StaticMapping struct {
	name  string
	proc  []platform.Proc                // planned processor per task
	order map[platform.Proc][]dag.TaskID // planned start order per processor
}

// NewStaticMapping captures the plan of a completed offline schedule.
func NewStaticMapping(name string, s *sched.Schedule) *StaticMapping {
	n := s.Problem().NumTasks()
	m := &StaticMapping{name: name, proc: make([]platform.Proc, n), order: map[platform.Proc][]dag.TaskID{}}
	type rec struct {
		t     dag.TaskID
		start float64
	}
	byProc := map[platform.Proc][]rec{}
	for t := 0; t < n; t++ {
		pl, _ := s.PlacementOf(dag.TaskID(t))
		m.proc[t] = pl.Proc
		byProc[pl.Proc] = append(byProc[pl.Proc], rec{t: dag.TaskID(t), start: pl.Start})
	}
	procs := make([]platform.Proc, 0, len(byProc))
	for p := range byProc {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for _, p := range procs {
		recs := byProc[p]
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].start != recs[j].start {
				return recs[i].start < recs[j].start
			}
			return recs[i].t < recs[j].t
		})
		for _, r := range recs {
			m.order[p] = append(m.order[p], r.t)
		}
	}
	return m
}

// Name implements Policy.
func (m *StaticMapping) Name() string { return m.name + "-static" }

// Pick implements Policy.
func (m *StaticMapping) Pick(st *State) (dag.TaskID, platform.Proc, bool) {
	for _, t := range st.Ready {
		p := m.proc[t]
		if !st.Reality.Alive(p, st.Now) {
			// Failover: reroute to the best alive processor right away.
			if q, ok := bestAliveEFT(st, t); ok {
				return t, q, true
			}
			continue
		}
		// Respect the planned per-processor order: t may start only when
		// every task planned before it on p has already been started.
		clear := true
		for _, prev := range m.order[p] {
			if prev == t {
				break
			}
			if st.Proc[prev] < 0 {
				clear = false
				break
			}
		}
		if clear {
			return t, p, true
		}
	}
	return 0, 0, false
}

// StaticOrderDynamicEFT keeps an offline priority order (e.g. HEFT's upward
// rank) but chooses processors online by estimated EFT against actual
// availability — the natural online adaptation of static list schedulers.
type StaticOrderDynamicEFT struct {
	name string
	rank []int // position of each task in the offline order
}

// NewStaticOrderDynamicEFT captures an offline schedule's dispatch order
// (by planned start time) as the online priority.
func NewStaticOrderDynamicEFT(name string, s *sched.Schedule) *StaticOrderDynamicEFT {
	n := s.Problem().NumTasks()
	ids := make([]dag.TaskID, n)
	for t := 0; t < n; t++ {
		ids[t] = dag.TaskID(t)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, _ := s.PlacementOf(ids[i])
		b, _ := s.PlacementOf(ids[j])
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return ids[i] < ids[j]
	})
	rank := make([]int, n)
	for pos, id := range ids {
		rank[id] = pos
	}
	return &StaticOrderDynamicEFT{name: name, rank: rank}
}

// Name implements Policy.
func (o *StaticOrderDynamicEFT) Name() string { return o.name + "-order" }

// Pick implements Policy.
func (o *StaticOrderDynamicEFT) Pick(st *State) (dag.TaskID, platform.Proc, bool) {
	best := dag.None
	for _, t := range st.Ready {
		if best == dag.None || o.rank[t] < o.rank[best] {
			best = t
		}
	}
	if best == dag.None {
		return 0, 0, false
	}
	p, ok := bestAliveEFT(st, best)
	if !ok {
		return 0, 0, false
	}
	return best, p, true
}

// aliveProcs lists the processors still accepting work at st.Now.
func aliveProcs(st *State) []platform.Proc {
	out := make([]platform.Proc, 0, st.Problem.NumProcs())
	for p := 0; p < st.Problem.NumProcs(); p++ {
		if st.Reality.Alive(platform.Proc(p), st.Now) {
			out = append(out, platform.Proc(p))
		}
	}
	return out
}

// bestAliveEFT returns the alive processor minimising the estimated EFT of t.
func bestAliveEFT(st *State, t dag.TaskID) (platform.Proc, bool) {
	best, found := platform.Proc(0), false
	bestV := math.Inf(1)
	for _, p := range aliveProcs(st) {
		if v := st.EstimatedEFT(t, p); v < bestV {
			bestV, best, found = v, p, true
		}
	}
	return best, found
}
