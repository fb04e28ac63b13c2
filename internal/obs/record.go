package obs

import (
	"math"
	"slices"
	"sync"
	"unsafe"
)

// DecisionRecord is one solve's complete decision state in compact
// columnar form — the generalised content of the paper's Table I. For every
// ITQ iteration it holds the selected task, the chosen processor and slot,
// the EFT row the processor was chosen from, and the penalty value of every
// queued task in task-ID order. It is the only thing the HDLTS recorder
// produces; the Table-I steps, the explain rationale and the
// pv/iteration/commit event stream (Render) are views built from it.
//
// Queued task IDs are not stored. Replay rebuilds each iteration's queue
// from the previous one: the previous selection leaves and the tasks listed
// in NewTasks enter. That costs four bytes per task instead of four per
// (task, iteration) pair.
//
// A record handed to a tracer is only valid during the call, and sinks do
// not modify it; one that keeps a record keeps a copy.
type DecisionRecord struct {
	// Alg names the algorithm the decisions belong to; Named stamps it
	// when empty, and every rendered event carries it.
	Alg string
	// Procs is the width of each EFT row.
	Procs int

	// Per-iteration columns, indexed by iteration ordinal minus one.
	Task    []int32   // the selected task
	Proc    []int32   // the processor it was committed to
	EST     []float64 // the committed start; the finish is the EFT row's Proc entry
	Dup     []bool    // the commit materialised an entry duplicate first
	Slotted []bool    // the slot starts before the processor's append point
	Entered []int32   // how many tasks joined the queue before this iteration

	// Flat columns.
	EFT      []float64 // Procs entries per iteration
	PV       []float64 // one entry per queued task per iteration, in task order
	NewTasks []int32   // the tasks Entered counts, iteration by iteration

	// One entry per iteration with Dup set, in iteration order: the
	// duplicated entry task and the duplicate's slot.
	DupTask             []int32
	DupStart, DupFinish []float64
}

// Byte costs of the record columns, the unit every trace budget is in.
const (
	// iterFixedBytes is one iteration's share of the per-iteration
	// columns: Task, Proc, EST, Dup, Slotted and Entered.
	iterFixedBytes = 4 + 4 + 8 + 1 + 1 + 4
	// dupBytes is one DupTask/DupStart/DupFinish entry.
	dupBytes = 4 + 8 + 8
	// eventBytes is what one stored Event costs.
	eventBytes = int(unsafe.Sizeof(Event{}))
)

// Len reports how many iterations the record stores.
func (r *DecisionRecord) Len() int { return len(r.Task) }

// Size is the record's payload in bytes: the sum of its columns.
func (r *DecisionRecord) Size() int {
	return len(r.Task)*iterFixedBytes + 8*(len(r.EFT)+len(r.PV)) + 4*len(r.NewTasks) + dupBytes*len(r.DupTask)
}

// iterEvents is the number of events one iteration renders to: a pv event
// per queued task, the iteration event, the duplicate's commit and the
// task's commit.
func iterEvents(width int, dup bool) int {
	if dup {
		return width + 3
	}
	return width + 2
}

// Replay walks the stored iterations in order, handing fn the iteration
// index (ordinal minus one), the queue at the decision as ascending task
// IDs, and the queued tasks' penalty values aligned with it. Both slices
// are only valid during the call.
func (r *DecisionRecord) Replay(fn func(i int, queue []int32, pv []float64)) {
	var queue []int32
	pvOff, newOff := 0, 0
	for i := range r.Task {
		if i > 0 {
			if j, ok := slices.BinarySearch(queue, r.Task[i-1]); ok {
				queue = slices.Delete(queue, j, j+1)
			}
		}
		for _, t := range r.NewTasks[newOff : newOff+int(r.Entered[i])] {
			j, _ := slices.BinarySearch(queue, t)
			queue = slices.Insert(queue, j, t)
		}
		newOff += int(r.Entered[i])
		fn(i, queue, r.PV[pvOff:pvOff+len(queue)])
		pvOff += len(queue)
	}
}

// Render is the event view of the record: per iteration one EvPV per
// queued task in task order, the EvIteration, the entry duplicate's EvCommit
// when the commit made one, and the task's EvCommit — the stream a traced
// solve has always produced, in the same order.
func (r *DecisionRecord) Render(emit func(Event)) {
	d := 0
	r.Replay(func(i int, queue []int32, pv []float64) {
		iter := i + 1
		for j, t := range queue {
			emit(Event{Type: EvPV, Alg: r.Alg, Task: int(t), Proc: -1, Iter: iter, Value: pv[j]})
		}
		task, proc := r.Task[i], int(r.Proc[i])
		sel, _ := slices.BinarySearch(queue, task)
		emit(Event{Type: EvIteration, Alg: r.Alg, Task: int(task), Proc: proc, Iter: iter, Value: pv[sel], Dup: r.Dup[i]})
		if r.Dup[i] {
			emit(Event{Type: EvCommit, Alg: r.Alg, Task: int(r.DupTask[d]), Proc: proc, Start: r.DupStart[d], Finish: r.DupFinish[d], Dup: true})
			d++
		}
		emit(Event{Type: EvCommit, Alg: r.Alg, Task: int(task), Proc: proc, Start: r.EST[i], Finish: r.EFT[i*r.Procs+proc]})
	})
}

// prefix returns an exact-size copy of the longest run of whole leading
// iterations that fits in budget bytes, sharing nothing with r, and the
// number of events the iterations it leaves out render to.
func (r *DecisionRecord) prefix(budget int) (*DecisionRecord, int) {
	n, size, width, pvEnd, newEnd, dups, dropped := 0, 0, 0, 0, 0, 0, 0
	for i := range r.Task {
		if i > 0 {
			width--
		}
		width += int(r.Entered[i])
		if n == i {
			size += iterFixedBytes + 8*(r.Procs+width) + 4*int(r.Entered[i])
			if r.Dup[i] {
				size += dupBytes
			}
			if size <= budget {
				n, pvEnd, newEnd = n+1, pvEnd+width, newEnd+int(r.Entered[i])
				if r.Dup[i] {
					dups++
				}
				continue
			}
		}
		dropped += iterEvents(width, r.Dup[i])
	}
	return &DecisionRecord{
		Alg: r.Alg, Procs: r.Procs,
		Task: slices.Clone(r.Task[:n]), Proc: slices.Clone(r.Proc[:n]), EST: slices.Clone(r.EST[:n]),
		Dup: slices.Clone(r.Dup[:n]), Slotted: slices.Clone(r.Slotted[:n]), Entered: slices.Clone(r.Entered[:n]),
		EFT: slices.Clone(r.EFT[:n*r.Procs]), PV: slices.Clone(r.PV[:pvEnd]), NewTasks: slices.Clone(r.NewTasks[:newEnd]),
		DupTask: slices.Clone(r.DupTask[:dups]), DupStart: slices.Clone(r.DupStart[:dups]), DupFinish: slices.Clone(r.DupFinish[:dups]),
	}, dropped
}

// recordSink is implemented by the tracers that take a DecisionRecord
// whole instead of its rendered events: DecisionLog, RecordKeeper, and the
// Named and Multi wrappers, which forward.
type recordSink interface {
	Tracer
	takeRecord(*DecisionRecord)
}

// EmitRecord hands one solve's decision record to t: sinks that take
// records keep a copy of it, every other tracer receives its rendered
// events. r may be reused once EmitRecord returns. A disabled tracer
// receives nothing.
func EmitRecord(t Tracer, r *DecisionRecord) {
	if t == nil || !t.Enabled() {
		return
	}
	if rs, ok := t.(recordSink); ok {
		rs.takeRecord(r)
		return
	}
	r.Render(t.Emit)
}

// DecisionLog holds one trace's decision state in arrival order under a
// byte cap of maxTraceBytes: single events at their in-memory size, and
// decision records whole, at their Size. A record over the remaining
// budget keeps its leading whole iterations; after that cut the log takes
// nothing more, so it holds a prefix of what it was handed and counts the
// rest as dropped events. The zero value is an empty log; it is a Tracer,
// safe for concurrent use.
type DecisionLog struct {
	mu      sync.Mutex
	events  []Event
	records []heldRecord
	bytes   int
	dropped int
}

// heldRecord is a kept decision record; its events follow events[:at].
type heldRecord struct {
	at  int
	rec *DecisionRecord
}

// Enabled implements Tracer.
func (l *DecisionLog) Enabled() bool { return true }

// Emit implements Tracer: it keeps ev while the cap has room.
func (l *DecisionLog) Emit(ev Event) {
	l.mu.Lock()
	if l.bytes+eventBytes > maxTraceBytes {
		l.dropped++
	} else {
		l.events = append(l.events, ev)
		l.bytes += eventBytes
	}
	l.mu.Unlock()
}

// takeRecord keeps r's longest prefix of whole iterations that fits the
// remaining budget, as an exact-size copy.
func (l *DecisionLog) takeRecord(r *DecisionRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept, dropped := r.prefix(maxTraceBytes - l.bytes)
	l.dropped += dropped
	l.bytes += kept.Size()
	if dropped > 0 {
		l.bytes = maxTraceBytes // a cut log takes nothing more
	}
	if kept.Len() > 0 {
		l.records = append(l.records, heldRecord{at: len(l.events), rec: kept})
	}
}

// Render hands emit every held event in arrival order, records rendered in
// place, and returns how many events the cap dropped. emit runs outside
// the lock: held entries are only appended to, and records are immutable.
func (l *DecisionLog) Render(emit func(Event)) (dropped int) {
	l.mu.Lock()
	events, records, dropped := l.events, l.records, l.dropped
	l.mu.Unlock()
	i := 0
	for _, h := range records {
		for ; i < h.at; i++ {
			emit(events[i])
		}
		h.rec.Render(emit)
	}
	for ; i < len(events); i++ {
		emit(events[i])
	}
	return dropped
}

// RecordKeeper keeps an exact, uncapped copy of the last decision record
// it is handed and ignores single events: explain and the Table-I trace
// read a solve's decisions through one. The zero value is empty; it is a
// Tracer, safe for concurrent use.
type RecordKeeper struct {
	mu  sync.Mutex
	rec *DecisionRecord
}

// Enabled implements Tracer.
func (k *RecordKeeper) Enabled() bool { return true }

// Emit implements Tracer: single events are not kept.
func (k *RecordKeeper) Emit(Event) {}

// takeRecord keeps an exact copy of r in place of any earlier record.
func (k *RecordKeeper) takeRecord(r *DecisionRecord) {
	kept, _ := r.prefix(math.MaxInt)
	k.mu.Lock()
	k.rec = kept
	k.mu.Unlock()
}

// Record returns the kept record, or nil when none was handed over.
func (k *RecordKeeper) Record() *DecisionRecord {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.rec
}
