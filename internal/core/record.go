package core

import (
	"slices"
	"sync"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// recorder is the one place decision state leaves the solver. runIndexed
// hands it a view of every ITQ iteration just before the commit — the
// selected row, its winning estimate, the iteration ordinal, and the live
// rows sorted ascending by task ID — and it appends that iteration to one
// obs.DecisionRecord, which the solve hands its problem's tracer.
// Everything else is a view of the record, read through that tracer:
//
//   - the pv/iteration/commit event stream (obs.DecisionRecord.Render),
//     which the tracer renders or keeps whole;
//   - the Table-I Step trace (stepsOf, from an obs.RecordKeeper);
//   - the explain rationale (internal/explain, from an obs.RecordKeeper).
//
// Whether to record is decided once per solve: untraced plain solves run
// with a nil recorder and pay one pointer test per iteration, which keeps
// the steady state allocation-free (TestScheduleIntoZeroAllocs).
type recorder struct {
	// dr is the record under construction, pooled scratch whose columns
	// grow by append.
	dr *obs.DecisionRecord
	// lastKey is the view key of the previous iteration's selection.
	lastKey uint64
}

// recordPool recycles recorder scratch records across solves; a sink that
// keeps a record keeps its own exact-size copy.
var recordPool = sync.Pool{New: func() any { return new(obs.DecisionRecord) }}

// newRecorder takes a scratch record from the pool, emptied, for a solve
// on np processors.
func newRecorder(np int) *recorder {
	dr := recordPool.Get().(*obs.DecisionRecord)
	*dr = obs.DecisionRecord{
		Procs: np,
		Task:  dr.Task[:0], Proc: dr.Proc[:0], EST: dr.EST[:0],
		Dup: dr.Dup[:0], Slotted: dr.Slotted[:0], Entered: dr.Entered[:0],
		EFT: dr.EFT[:0], PV: dr.PV[:0], NewTasks: dr.NewTasks[:0],
		DupTask: dr.DupTask[:0], DupStart: dr.DupStart[:0], DupFinish: dr.DupFinish[:0],
	}
	return &recorder{dr: dr}
}

// release returns the scratch record to the pool.
func (r *recorder) release() {
	recordPool.Put(r.dr)
	r.dr = nil
}

// syncView brings a.view — every live row packed as task<<32 | row, so
// ascending keys are ascending task IDs — up to date for iteration iter:
// the previous selection leaves, and the rows enqueued since (stamped
// iter-1; at iteration 1, the entry rows) enter at their sorted position
// and are logged in the record's NewTasks. Upkeep rather than a sort per
// iteration: the sort cost ~7% of a collector-traced v1k solve
// (BenchmarkObsOverheadCollector).
func (r *recorder) syncView(a *arena, iter uint32) []uint64 {
	view := a.view
	if iter == 1 {
		view = view[:0]
	} else if i, ok := slices.BinarySearch(view, r.lastKey); ok {
		view = slices.Delete(view, i, i+1)
	}
	entered := int32(0)
	for _, q := range a.live {
		if a.filledIter[q] == iter-1 {
			k := uint64(a.taskOf[q])<<32 | uint64(q)
			i, _ := slices.BinarySearch(view, k)
			view = slices.Insert(view, i, k)
			r.dr.NewTasks = append(r.dr.NewTasks, a.taskOf[q])
			entered++
		}
	}
	r.dr.Entered = append(r.dr.Entered, entered)
	a.view = view
	return view
}

// record appends one iteration to the record. Called with the arena's row
// state current for the selected task and before the commit mutates
// processor availability. Not a hot-path function: it only runs on
// recorded solves.
func (r *recorder) record(a *arena, t dag.TaskID, row int32, best sched.Estimate, iter uint32) {
	dr := r.dr
	view := r.syncView(a, iter)
	r.lastKey = uint64(t)<<32 | uint64(row)
	for _, k := range view {
		dr.PV = append(dr.PV, a.pv[uint32(k)])
	}
	base := int(row) * a.np
	dr.EFT = append(dr.EFT, a.eftM[base:base+a.np]...)
	dr.Task = append(dr.Task, int32(t))
	dr.Proc = append(dr.Proc, int32(best.Proc))
	dr.EST = append(dr.EST, best.EST)
	dr.Dup = append(dr.Dup, best.UseDuplicate)
	dr.Slotted = append(dr.Slotted, best.EST < a.s.Avail(best.Proc))
	if best.UseDuplicate {
		dr.DupTask = append(dr.DupTask, int32(best.DupTask))
		dr.DupStart = append(dr.DupStart, best.DupStart)
		dr.DupFinish = append(dr.DupFinish, best.DupFinish)
	}
}

// stepsOf is the Table-I view of a record.
func stepsOf(dr *obs.DecisionRecord) []Step {
	steps := make([]Step, 0, dr.Len())
	dr.Replay(func(i int, queue []int32, pv []float64) {
		st := Step{
			Ready:      make([]dag.TaskID, len(queue)),
			PV:         slices.Clone(pv),
			Selected:   dag.TaskID(dr.Task[i]),
			EFT:        slices.Clone(dr.EFT[i*dr.Procs : (i+1)*dr.Procs]),
			Proc:       platform.Proc(dr.Proc[i]),
			Duplicated: dr.Dup[i],
		}
		for j, q := range queue {
			st.Ready[j] = dag.TaskID(q)
		}
		steps = append(steps, st)
	})
	return steps
}
