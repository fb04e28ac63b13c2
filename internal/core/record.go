package core

import (
	"cmp"
	"slices"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/sched"
)

// recorder is the one place decision state leaves the solver. runIndexed
// hands it a view of every ITQ iteration just before the commit — the
// selected row, its winning estimate, the iteration ordinal, and the live
// rows sorted ascending by task ID — and three consumers are derived from
// that single view:
//
//   - tracer events: one EvPV per queued task, then one EvIteration
//     (EvCommit events follow from sched.Commit itself);
//   - the Table-I Step trace (ScheduleTrace);
//   - the explain Decision log (ScheduleExplained).
//
// Whether to record is decided once per solve: untraced plain solves run
// with a nil recorder and pay one pointer test per iteration, which keeps
// the steady state allocation-free (TestScheduleIntoZeroAllocs).
type recorder struct {
	// tr receives decision events; nil when the problem is untraced.
	tr obs.Tracer
	// keepSteps and keepDecisions select the structured consumers.
	keepSteps, keepDecisions bool
	steps                    []Step
	decisions                []Decision
	// lastKey is the view key of the previous iteration's selection.
	lastKey uint64
}

// syncView brings a.view — every live row packed as task<<32 | row, so
// ascending keys are ascending task IDs — up to date for iteration iter:
// the previous selection leaves, and the rows enqueued since (stamped
// iter-1; at iteration 1, the entry rows) enter at their sorted position.
// Upkeep rather than a sort per iteration: the sort cost ~7% of a
// collector-traced v1k solve (BenchmarkObsOverheadCollector).
func (r *recorder) syncView(a *arena, iter uint32) []uint64 {
	view := a.view
	if iter == 1 {
		view = view[:0]
	} else if i, ok := slices.BinarySearch(view, r.lastKey); ok {
		view = slices.Delete(view, i, i+1)
	}
	for _, q := range a.live {
		if a.filledIter[q] == iter-1 {
			k := uint64(a.taskOf[q])<<32 | uint64(q)
			i, _ := slices.BinarySearch(view, k)
			view = slices.Insert(view, i, k)
		}
	}
	a.view = view
	return view
}

// record consumes one iteration. Called with the arena's row state current
// for the selected task and before the commit mutates processor
// availability. Not a hot-path function: it only runs on recorded solves
// and the structured consumers allocate freely.
func (r *recorder) record(a *arena, t dag.TaskID, row int32, best sched.Estimate, iter uint32) {
	// The view packs each live row as task<<32 | row, so sorting the keys
	// orders the rows by task ID with plain integer compares.
	view := r.syncView(a, iter)
	r.lastKey = uint64(t)<<32 | uint64(row)
	if r.tr != nil {
		for _, k := range view {
			r.tr.Emit(obs.Event{Type: obs.EvPV, Task: int(k >> 32), Proc: -1, Iter: int(iter), Value: a.pv[uint32(k)]})
		}
		r.tr.Emit(obs.Event{
			Type: obs.EvIteration, Task: int(t), Proc: int(best.Proc),
			Iter: int(iter), Value: a.pv[row], Dup: best.UseDuplicate,
		})
	}
	base := int(row) * a.np
	eft := a.eftM[base : base+a.np]
	if r.keepSteps {
		st := Step{
			Ready:      make([]dag.TaskID, len(view)),
			PV:         make([]float64, len(view)),
			Selected:   t,
			EFT:        append([]float64(nil), eft...),
			Proc:       best.Proc,
			Duplicated: best.UseDuplicate,
		}
		for i, k := range view {
			st.Ready[i], st.PV[i] = dag.TaskID(k>>32), a.pv[uint32(k)]
		}
		r.steps = append(r.steps, st)
	}
	if r.keepDecisions {
		d := Decision{
			Iter:     int(iter),
			Task:     t,
			PV:       a.pv[row],
			ITQWidth: len(view),
			EFT:      append([]float64(nil), eft...),
			EST:      best.EST,
			Proc:     best.Proc,
			Slotted:  best.EST < a.s.Avail(best.Proc),
		}
		if best.UseDuplicate {
			d.Duplicated = true
			d.DupTask = best.DupTask
		}
		d.ITQ = make([]ITQItem, len(view))
		for i, k := range view {
			d.ITQ[i] = ITQItem{Task: dag.TaskID(k >> 32), PV: a.pv[uint32(k)]}
		}
		if len(d.ITQ) > itqCaptureCap {
			// Keep the top entries in the solver's own selection order
			// (PV descending, task ascending), then restore task order.
			slices.SortStableFunc(d.ITQ, func(x, y ITQItem) int { return cmp.Compare(y.PV, x.PV) })
			d.ITQ = d.ITQ[:itqCaptureCap]
			slices.SortFunc(d.ITQ, func(x, y ITQItem) int { return cmp.Compare(x.Task, y.Task) })
		}
		r.decisions = append(r.decisions, d)
	}
}
