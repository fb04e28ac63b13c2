package core

import (
	"fmt"
	"slices"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
	"hdlts/internal/stats"
)

// runReference is the test-only differential oracle: the direct
// transcription of the paper's loop — a sorted ITQ slice scanned per
// iteration, per-task estimate-vector caches in maps, full EFT
// recomputation on demand — against which the indexed core is proven to
// produce byte-identical schedules, bit-identical Table-I steps, and the
// same decision-event stream minus the estimate events its substrate calls
// emit (see indexed_test.go). fullRecompute degrades it further into the
// literal O(|ITQ|·p) loop of the paper. It normalises pr and always
// captures the Table-I steps.
func (h *HDLTS) runReference(pr *sched.Problem, fullRecompute bool) (*sched.Schedule, []Step, error) {
	pr = pr.Normalize()
	g := pr.G
	s := sched.NewSchedule(pr)
	pol := h.policy()
	tr := pr.Tracer()

	n := g.NumTasks()
	// remaining[t] counts unscheduled parents; tasks enter the ITQ at zero.
	remaining := make([]int, n)
	itq := make([]dag.TaskID, 0, n)
	for t := 0; t < n; t++ {
		remaining[t] = g.InDegree(dag.TaskID(t))
		if remaining[t] == 0 {
			itq = append(itq, dag.TaskID(t))
		}
	}

	sigma := stats.SampleStdDev
	if h.opts.PopulationSigma {
		sigma = stats.PopStdDev
	}

	var steps []Step
	estBuf := make([]sched.Estimate, pr.NumProcs())
	eftBuf := make([]float64, pr.NumProcs())
	// Per-iteration scratch, reallocated only on ITQ growth.
	pvs := make([]float64, 0, len(itq))
	ests := make(map[dag.TaskID][]sched.Estimate, 8)
	// fresh[t] marks ITQ members whose estimate vector must be rebuilt from
	// scratch. Between iterations only the just-committed processor's
	// column can change for already-queued tasks (their ready times are
	// fixed once all parents are placed), so the incremental path
	// re-estimates a single (task, proc) pair per member. Materialising an
	// entry duplicate adds a new copy of a parent visible from *every*
	// processor, so that case falls back to full recomputation.
	fresh := make(map[dag.TaskID]bool, len(itq))
	for _, t := range itq {
		fresh[t] = true
	}
	var lastProc platform.Proc = -1
	refreshAll := false
	iter := 0
	// The ITQ is built in ascending task order above; removals preserve
	// order, so it only unsorts when phase 4 appends a task that breaks the
	// ascending run. Re-sorting unconditionally was measurably hot at 10k+
	// tasks.
	itqSorted := true

	for len(itq) > 0 {
		iter++
		if !itqSorted {
			slices.Sort(itq)
			itqSorted = true
		}
		pvs = pvs[:0]

		// Phase 1+2: EFT vectors and penalty values for every ready task.
		bestIdx := 0
		for i, t := range itq {
			esCopy, ok := ests[t]
			switch {
			case !ok || fresh[t] || refreshAll || fullRecompute:
				es, err := s.EstimateAll(t, pol, estBuf)
				if err != nil {
					return nil, nil, fmt.Errorf("core: estimating task %d: %w", t, err)
				}
				if !ok || cap(esCopy) < len(es) {
					esCopy = make([]sched.Estimate, len(es))
				}
				esCopy = esCopy[:len(es)]
				copy(esCopy, es)
				ests[t] = esCopy
				delete(fresh, t)
			case lastProc >= 0:
				e, err := s.Estimate(t, lastProc, pol)
				if err != nil {
					return nil, nil, fmt.Errorf("core: estimating task %d: %w", t, err)
				}
				esCopy[lastProc] = e
			}

			for p := range esCopy {
				eftBuf[p] = esCopy[p].EFT
			}
			pv := sigma(eftBuf[:len(esCopy)])
			pvs = append(pvs, pv)
			// Highest PV wins; ties fall to the smaller task ID, which is
			// the earlier ITQ position because the queue is sorted.
			if pv > pvs[bestIdx] {
				bestIdx = i
			}
		}
		refreshAll = false

		selected := itq[bestIdx]
		// Phase 3: commit to the minimum-EFT processor (with the optional
		// one-level lookahead score instead of the bare EFT).
		es := ests[selected]
		best := es[0]
		if h.opts.Lookahead {
			bestScore := h.lookaheadScore(s, es[0])
			for _, e := range es[1:] {
				if sc := h.lookaheadScore(s, e); sc < bestScore {
					best, bestScore = e, sc
				}
			}
		} else {
			for _, e := range es[1:] {
				if e.EFT < best.EFT {
					best = e
				}
			}
		}
		if tr.Enabled() {
			// The generalised form of the Table-I trace: one PV event per
			// ready task, then the iteration's selection. Commit events
			// follow from the sched substrate.
			for i, t := range itq {
				tr.Emit(obs.Event{Type: obs.EvPV, Task: int(t), Proc: -1, Iter: iter, Value: pvs[i]})
			}
			tr.Emit(obs.Event{
				Type: obs.EvIteration, Task: int(selected), Proc: int(best.Proc),
				Iter: iter, Value: pvs[bestIdx], Dup: best.UseDuplicate,
			})
		}
		steps = captureStep(steps, itq, pvs, selected, best, es)
		if err := s.Commit(best); err != nil {
			return nil, nil, fmt.Errorf("core: committing task %d on P%d: %w", selected, best.Proc+1, err)
		}
		lastProc = best.Proc
		if best.UseDuplicate {
			// The new entry copy is reachable from every processor: stale
			// ready times are possible everywhere, so rebuild fully.
			refreshAll = true
		}

		// Phase 4: update the ITQ.
		itq = append(itq[:bestIdx], itq[bestIdx+1:]...)
		delete(ests, selected)
		for _, a := range g.Succs(selected) {
			remaining[a.Task]--
			if remaining[a.Task] == 0 {
				if len(itq) > 0 && a.Task < itq[len(itq)-1] {
					itqSorted = false
				}
				itq = append(itq, a.Task)
				fresh[a.Task] = true
			}
		}
	}

	if !s.Complete() {
		return nil, nil, fmt.Errorf("core: scheduler stalled with %d/%d tasks placed", s.NumPlaced(), n)
	}
	return s, steps, nil
}

// captureStep appends one Table-I trace step, copying the ready set, PVs,
// and EFT vector.
func captureStep(steps []Step, itq []dag.TaskID, pvs []float64, selected dag.TaskID, best sched.Estimate, es []sched.Estimate) []Step {
	st := Step{
		Ready:      append([]dag.TaskID(nil), itq...),
		PV:         append([]float64(nil), pvs...),
		Selected:   selected,
		Proc:       best.Proc,
		Duplicated: best.UseDuplicate,
	}
	st.EFT = make([]float64, len(es))
	for p := range es {
		st.EFT[p] = es[p].EFT
	}
	return append(steps, st)
}
