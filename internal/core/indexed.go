package core

import (
	"fmt"
	"sync"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
	"hdlts/internal/stats"
)

// The indexed core is the one HDLTS engine: the paper's loop (kept in
// literal form as the test oracle in reference_test.go), restated over
// flat index-keyed state so that the steady state of a solve allocates
// nothing and each iteration costs O(|ITQ|) with O(1) work per queued task.
//
// Layout (struct-of-slice throughout; see docs/SOLVER.md for the rationale
// and the Algorithm 1 line mapping):
//
//   - remaining, the only task-indexed array (length n), counts unplaced
//     parents; everything else scales with the peak ITQ width.
//   - one recycled "row" per queued task holds its cached per-processor
//     parent arrivals (entryArr/otherArr, the FillArrivals split), its EFT
//     vector (eftM), and its PV. Rows return to a free list on commit, so
//     a 1M-task solve with a 10k-wide frontier keeps ~10k rows.
//   - there is no priority structure: on typical DAGs the committed
//     processor's availability moves almost every queued task's EFT every
//     iteration, which degenerates a heap to |ITQ| sift operations per
//     iteration. The update pass already touches every live row, so the
//     selection argmax rides along with it for free, taken over the
//     (PV descending, task ID ascending) total order so that extraction
//     is deterministic.
//
// The arena is pooled (arenaPool) and every slice is truncated, never
// freed, between solves: after the first solve of a given shape the only
// allocations left in HDLTS.Schedule are the returned Schedule's own
// tables, and ScheduleInto removes those too.
type arena struct {
	// Bound per solve.
	s        *sched.Schedule
	pr       *sched.Problem
	pol      sched.Policy
	popSigma bool
	np       int

	// Scratch of the update pass listing the rows whose EFT moved, so
	// their σ recomputations can run pairwise-interleaved afterwards (see
	// stats.SampleStdDev2).
	dirty []int32

	// remaining[t] counts unplaced parents; tasks enter the queue at 0, and
	// tasks the schedule places before the solve sit at -1.
	remaining []int32

	// Row-indexed; rows recycle through freeRows, so these grow to the peak
	// ITQ width. The flat matrices hold np entries per row.
	taskOf     []int32
	liveIdx    []int32 // position in live
	filledIter []uint32
	entryTask  []int32 // duplication-candidate parent, -1 when none
	pv         []float64
	live       []int32 // active rows, enqueue order
	freeRows   []int32
	eftM       []float64
	entryArr   []float64
	otherArr   []float64
	wRow       []float64 // the row task's execution costs, copied at enqueue

	// view is the recorder's scratch: the live rows as task<<32 | row keys.
	view []uint64
}

// arenaPool recycles solver arenas across solves (and across HDLTS
// instances — the arena carries no per-instance state).
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// bind prepares a pooled arena for one solve: the parent counter sized to
// n, row storage truncated but kept.
func (a *arena) bind(s *sched.Schedule, pr *sched.Problem, pol sched.Policy, popSigma bool, n, np int) {
	a.s, a.pr, a.pol, a.popSigma, a.np = s, pr, pol, popSigma, np
	if cap(a.remaining) < n {
		a.remaining = make([]int32, n)
	}
	a.remaining = a.remaining[:n]
	a.live = a.live[:0]
	a.freeRows = a.freeRows[:0]
	a.taskOf = a.taskOf[:0]
	a.liveIdx = a.liveIdx[:0]
	a.filledIter = a.filledIter[:0]
	a.entryTask = a.entryTask[:0]
	a.pv = a.pv[:0]
	a.eftM = a.eftM[:0]
	a.entryArr = a.entryArr[:0]
	a.otherArr = a.otherArr[:0]
	a.wRow = a.wRow[:0]
}

// recycle drops the per-solve bindings (so pooled arenas do not pin
// problems or schedules) and returns the arena to the pool.
func (a *arena) recycle() {
	a.s, a.pr = nil, nil
	arenaPool.Put(a)
}

// sigmaOf computes the configured PV σ over one EFT row. A branch over two
// direct calls, not a func field: the indirect call would block inlining on
// ~|E| invocations per solve.
//
//hdlts:hotpath
func (a *arena) sigmaOf(xs []float64) float64 {
	if a.popSigma {
		return stats.PopStdDev(xs)
	}
	return stats.SampleStdDev(xs)
}

// allocRow hands out a recycled row or grows the row storage by one. This
// is the designated amortised-growth point of the arena: the appends here
// run only while the ITQ widens past every previous solve's peak.
func (a *arena) allocRow() int32 {
	if k := len(a.freeRows); k > 0 {
		r := a.freeRows[k-1]
		a.freeRows = a.freeRows[:k-1]
		return r
	}
	r := int32(len(a.taskOf))
	a.taskOf = append(a.taskOf, 0)
	a.liveIdx = append(a.liveIdx, 0)
	a.filledIter = append(a.filledIter, 0)
	a.entryTask = append(a.entryTask, 0)
	a.pv = append(a.pv, 0)
	for i := 0; i < a.np; i++ {
		a.eftM = append(a.eftM, 0)
		a.entryArr = append(a.entryArr, 0)
		a.otherArr = append(a.otherArr, 0)
		a.wRow = append(a.wRow, 0)
	}
	return r
}

// enqueue admits a newly independent task: fills its arrival caches and
// computes its full EFT vector and PV against the current schedule. iter
// stamps the row so the next iteration's update pass knows it is already
// current.
//
//hdlts:hotpath
func (a *arena) enqueue(t dag.TaskID, iter uint32) error {
	row := a.allocRow()
	np := a.np
	base := int(row) * np
	et, err := a.s.FillArrivals(t, a.pol, a.entryArr[base:base+np], a.otherArr[base:base+np])
	if err != nil {
		a.freeRows = append(a.freeRows, row)
		return err
	}
	a.taskOf[row] = int32(t)
	a.entryTask[row] = int32(et)
	a.filledIter[row] = iter
	// An explicit element loop, not copy(): at np elements the memmove call
	// overhead exceeds the move itself.
	wr := a.wRow[base : base+np]
	for q, w := range a.pr.W.RowView(int(t)) {
		wr[q] = w
	}
	if et == dag.None && !a.pol.Insertion {
		// Fast path mirroring updateColumn: no duplication candidate and
		// avail-based placement reduce the EFT to max(ready, Avail) + w.
		for q := 0; q < np; q++ {
			est := a.otherArr[base+q]
			if av := a.s.Avail(platform.Proc(q)); av > est {
				est = av
			}
			a.eftM[base+q] = est + wr[q]
		}
	} else {
		for q := 0; q < np; q++ {
			e := a.s.EstimateArrived(t, platform.Proc(q), a.pol, et, a.entryArr[base+q], a.otherArr[base+q])
			a.eftM[base+q] = e.EFT
		}
	}
	a.pv[row] = a.sigmaOf(a.eftM[base : base+np])
	a.liveIdx[row] = int32(len(a.live))
	a.live = append(a.live, row)
	return nil
}

// freeRow retires the committed task's row: swap-remove from live, return
// the row to the free list.
func (a *arena) freeRow(row int32) {
	li := a.liveIdx[row]
	lastRow := a.live[len(a.live)-1]
	a.live[li] = lastRow
	a.liveIdx[lastRow] = li
	a.live = a.live[:len(a.live)-1]
	a.freeRows = append(a.freeRows, row)
}

// selectScan returns the live row with the maximal (PV, smaller task ID) —
// the standalone selection used on the first iteration, before any update
// pass runs to carry the argmax.
//
//hdlts:hotpath
func (a *arena) selectScan() int32 {
	bPV := -1.0
	bRow, bTask := int32(-1), int32(0)
	for _, row := range a.live {
		pv := a.pv[row]
		if pv > bPV || (pv == bPV && a.taskOf[row] < bTask) {
			bPV, bRow, bTask = pv, row, a.taskOf[row]
		}
	}
	return bRow
}

// updateColumn brings the committed processor's EFT column current for
// every stale queued row, refreshes their PVs, and returns the next
// selection (the fused argmax) plus the number of rows re-estimated (the
// substrate counter batch).
//
//hdlts:hotpath
func (a *arena) updateColumn(q platform.Proc, iter uint32) (int32, int64) {
	qi := int(q)
	np := a.np
	skip := iter - 1
	avail := a.s.Avail(q)
	insertion := a.pol.Insertion
	popSigma := a.popSigma
	// Locals pin the slice headers in registers: the a.pv store inside the
	// loop would otherwise force the backing arrays to reload every row.
	live := a.live
	taskOf, filledIter, entryTask := a.taskOf, a.filledIter, a.entryTask
	otherArr, eftM, pvs, wRows := a.otherArr, a.eftM, a.pv, a.wRow
	// Rows whose EFT moves are only recorded here; their σ recomputations
	// run pairwise afterwards, interleaving two independent FP dependency
	// chains (the serial add chain inside one σ is the latency bound).
	// Sized to the queue once, before the row loop, so the appends below
	// never grow it.
	dirty := a.dirty
	if cap(dirty) < len(live) {
		dirty = make([]int32, 0, len(live))
	}
	dirty = dirty[:0]
	updated := int64(0)
	for _, row := range live {
		if filledIter[row] != skip { // enqueued earlier; column may be stale
			updated++
			base := int(row) * np
			et := entryTask[row]
			if et < 0 && !insertion {
				// Fast path: without a duplication candidate, avail-based
				// EstimateArrived collapses to max(ready, Avail(q)) + w(t, q),
				// and Avail(q) is the hoisted pass constant. When the ready
				// time dominates (est >= avail), the fill-time value
				// est + w is still exact — Avail only grows under commits,
				// so it was dominated then too — and the whole recompute
				// skips.
				if est := otherArr[base+qi]; est < avail {
					if eftNew := avail + wRows[base+qi]; eftNew != eftM[base+qi] {
						eftM[base+qi] = eftNew
						dirty = append(dirty, row)
					}
				}
			} else {
				e := a.s.EstimateArrived(dag.TaskID(taskOf[row]), q, a.pol, dag.TaskID(et), a.entryArr[base+qi], otherArr[base+qi])
				if eftNew := e.EFT; eftNew != eftM[base+qi] {
					eftM[base+qi] = eftNew
					dirty = append(dirty, row)
				}
			}
		}
	}
	a.dirty = dirty
	i := 0
	for ; i+1 < len(dirty); i += 2 {
		r0, r1 := dirty[i], dirty[i+1]
		b0, b1 := int(r0)*np, int(r1)*np
		if popSigma {
			pvs[r0], pvs[r1] = stats.PopStdDev2(eftM[b0:b0+np], eftM[b1:b1+np])
		} else {
			pvs[r0], pvs[r1] = stats.SampleStdDev2(eftM[b0:b0+np], eftM[b1:b1+np])
		}
	}
	if i < len(dirty) {
		r := dirty[i]
		b := int(r) * np
		if popSigma {
			pvs[r] = stats.PopStdDev(eftM[b : b+np])
		} else {
			pvs[r] = stats.SampleStdDev(eftM[b : b+np])
		}
	}
	// Selection argmax, now that every PV is current. The task ID loads
	// only on the rare tie/new-max, keeping the common step to one float
	// load and one compare.
	bPV := -1.0
	bRow, bTask := int32(-1), int32(0)
	for _, row := range live {
		if pv := pvs[row]; pv > bPV {
			bPV, bRow, bTask = pv, row, taskOf[row]
		} else if pv == bPV && taskOf[row] < bTask {
			bRow, bTask = row, taskOf[row]
		}
	}
	return bRow, updated
}

// refreshRows rebuilds every stale row from scratch after a duplication:
// the new entry copy is reachable from every processor, so both the cached
// arrival vectors and every EFT column may have moved. Mirrors the
// reference oracle's refreshAll fallback, carrying the selection argmax
// like updateColumn does.
//
//hdlts:hotpath
func (a *arena) refreshRows(iter uint32) (int32, int64, error) {
	np := a.np
	skip := iter - 1
	refreshed := int64(0)
	bPV := -1.0
	bRow, bTask := int32(-1), int32(0)
	for _, row := range a.live {
		t := a.taskOf[row]
		if a.filledIter[row] != skip {
			base := int(row) * np
			et, err := a.s.FillArrivals(dag.TaskID(t), a.pol, a.entryArr[base:base+np], a.otherArr[base:base+np])
			if err != nil {
				return -1, refreshed, err
			}
			a.entryTask[row] = int32(et)
			for q := 0; q < np; q++ {
				e := a.s.EstimateArrived(dag.TaskID(t), platform.Proc(q), a.pol, et, a.entryArr[base+q], a.otherArr[base+q])
				a.eftM[base+q] = e.EFT
			}
			refreshed += int64(np)
			a.pv[row] = a.sigmaOf(a.eftM[base : base+np])
		}
		pv := a.pv[row]
		if pv > bPV || (pv == bPV && t < bTask) {
			bPV, bRow, bTask = pv, row, t
		}
	}
	return bRow, refreshed, nil
}

// bestEstimate recomputes the selected task's winning estimate from its
// cached arrivals: the minimum-EFT processor (ties to the lower index), or
// the lookahead score when that option is on. No commit has intervened
// since the row's vectors were brought current, so the recomputation is
// bit-identical to the cached values — including the duplication decision
// the EFT alone does not carry.
//
//hdlts:hotpath
func (h *HDLTS) bestEstimate(a *arena, t dag.TaskID, row int32) sched.Estimate {
	np := a.np
	base := int(row) * np
	et := dag.TaskID(a.entryTask[row])
	if h.opts.Lookahead {
		best := a.s.EstimateArrived(t, 0, a.pol, et, a.entryArr[base], a.otherArr[base])
		bestScore := h.lookaheadScore(a.s, best)
		for q := 1; q < np; q++ {
			e := a.s.EstimateArrived(t, platform.Proc(q), a.pol, et, a.entryArr[base+q], a.otherArr[base+q])
			if sc := h.lookaheadScore(a.s, e); sc < bestScore {
				best, bestScore = e, sc
			}
		}
		return best
	}
	bq := 0
	for q := 1; q < np; q++ {
		if a.eftM[base+q] < a.eftM[base+bq] {
			bq = q
		}
	}
	return a.s.EstimateArrived(t, platform.Proc(bq), a.pol, et, a.entryArr[base+bq], a.otherArr[base+bq])
}

// runIndexed is the allocation-free engine. It maintains exactly the state
// the reference oracle recomputes — per queued task, the EFT vector under
// the current partial schedule and its PV — but keyed by index, updated in
// O(1) per (row, committed column), with the selection fused into the
// update pass. It maps every task s leaves unplaced; the tasks s already
// places count as parents that have finished. rec, when non-nil, receives
// every iteration's decision view (record.go); untraced plain solves pass
// nil and pay one pointer test per iteration.
//
//hdlts:hotpath
func (h *HDLTS) runIndexed(s *sched.Schedule, rec *recorder) error {
	defer obs.StartSolve(h.Name()).Stop()
	pr := s.Problem()
	g := pr.G
	pol := h.policy()
	n, np := pr.NumTasks(), pr.NumProcs()

	a := arenaPool.Get().(*arena)
	defer a.recycle()
	a.bind(s, pr, pol, h.opts.PopulationSigma, n, np)

	// Estimates and iterations are batch-accounted: neither
	// EstimateArrived nor the loop bumps its counter per call, so one Add
	// each on every exit (countWork) lands the totals per-call increments
	// would.
	estimates := int64(0)
	for t := 0; t < n; t++ {
		left := int32(-1) // placed: never queued
		if !s.Placed(dag.TaskID(t)) {
			left = 0
			for _, arc := range g.Preds(dag.TaskID(t)) {
				if !s.Placed(arc.Task) {
					left++
				}
			}
		}
		a.remaining[t] = left
		if left == 0 {
			if err := a.enqueue(dag.TaskID(t), 0); err != nil {
				return fmt.Errorf("core: estimating task %d: %w", t, err)
			}
			estimates += int64(np)
		}
	}

	var lastProc platform.Proc = -1
	refreshAll := false
	iter := uint32(0)
	for len(a.live) > 0 {
		iter++
		// Phase 1+2: bring EFT vectors and PVs current and pick the winner.
		// After a plain commit only the committed processor's column can
		// have moved for already-queued tasks; after a duplication every
		// row rebuilds. Rows enqueued after the previous commit are stamped
		// current and skipped.
		var selRow int32
		if lastProc < 0 {
			selRow = a.selectScan()
		} else if refreshAll {
			row, refreshed, err := a.refreshRows(iter)
			estimates += refreshed
			if err != nil {
				countWork(estimates, iter)
				return fmt.Errorf("core: refreshing estimates: %w", err)
			}
			selRow = row
			refreshAll = false
		} else {
			row, updated := a.updateColumn(lastProc, iter)
			selRow = row
			estimates += updated
		}

		// Phase 3: highest PV (ties to the smaller task ID) goes to its
		// minimum-EFT processor (or best lookahead score).
		t := dag.TaskID(a.taskOf[selRow])
		best := h.bestEstimate(a, t, selRow)
		if rec != nil {
			rec.record(a, t, selRow, best, iter)
		}
		// The recorder reports this placement in its record, so the
		// commit itself emits nothing.
		if err := s.CommitUntraced(best); err != nil {
			countWork(estimates, iter)
			return fmt.Errorf("core: committing task %d on P%d: %w", t, best.Proc+1, err)
		}
		lastProc = best.Proc
		refreshAll = best.UseDuplicate
		a.freeRow(selRow)

		// Phase 4: admit newly independent tasks with post-commit estimate
		// vectors — the same vectors the reference oracle computes at the
		// top of its next iteration, since no commit intervenes.
		for _, arc := range g.Succs(t) {
			a.remaining[arc.Task]--
			if a.remaining[arc.Task] == 0 {
				if err := a.enqueue(arc.Task, iter); err != nil {
					countWork(estimates, iter)
					return fmt.Errorf("core: estimating task %d: %w", arc.Task, err)
				}
				estimates += int64(np)
			}
		}
	}
	countWork(estimates, iter)

	if !s.Complete() {
		return fmt.Errorf("core: scheduler stalled with %d/%d tasks placed", s.NumPlaced(), n)
	}
	return nil
}

// countWork lands one solve's batch-accounted totals: iters ITQ
// iterations and estimates substrate estimates.
func countWork(estimates int64, iters uint32) {
	sched.CountEstimates(estimates)
	iterationCount.Add(int64(iters))
}
