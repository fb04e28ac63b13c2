package obs

import (
	"reflect"
	"testing"
)

// sampleRecord is a three-iteration record on two processors: task 0
// alone, then tasks 1 and 2 queued with task 2 taking an entry duplicate
// of task 0, then task 1 alone.
func sampleRecord() *DecisionRecord {
	return &DecisionRecord{
		Procs:     2,
		Task:      []int32{0, 2, 1},
		Proc:      []int32{1, 0, 1},
		EST:       []float64{0, 2, 2},
		Dup:       []bool{false, true, false},
		Slotted:   []bool{false, false, false},
		Entered:   []int32{1, 2, 0},
		EFT:       []float64{3, 2, 5, 6, 7, 6},
		PV:        []float64{1.5, 0.5, 0.7, 0.1},
		NewTasks:  []int32{0, 2, 1},
		DupTask:   []int32{0},
		DupStart:  []float64{0},
		DupFinish: []float64{3},
	}
}

// sampleEvents is sampleRecord's rendered stream under alg.
func sampleEvents(alg string) []Event {
	return []Event{
		{Type: EvPV, Alg: alg, Task: 0, Proc: -1, Iter: 1, Value: 1.5},
		{Type: EvIteration, Alg: alg, Task: 0, Proc: 1, Iter: 1, Value: 1.5},
		{Type: EvCommit, Alg: alg, Task: 0, Proc: 1, Start: 0, Finish: 2},
		{Type: EvPV, Alg: alg, Task: 1, Proc: -1, Iter: 2, Value: 0.5},
		{Type: EvPV, Alg: alg, Task: 2, Proc: -1, Iter: 2, Value: 0.7},
		{Type: EvIteration, Alg: alg, Task: 2, Proc: 0, Iter: 2, Value: 0.7, Dup: true},
		{Type: EvCommit, Alg: alg, Task: 0, Proc: 0, Start: 0, Finish: 3, Dup: true},
		{Type: EvCommit, Alg: alg, Task: 2, Proc: 0, Start: 2, Finish: 5},
		{Type: EvPV, Alg: alg, Task: 1, Proc: -1, Iter: 3, Value: 0.1},
		{Type: EvIteration, Alg: alg, Task: 1, Proc: 1, Iter: 3, Value: 0.1},
		{Type: EvCommit, Alg: alg, Task: 1, Proc: 1, Start: 2, Finish: 6},
	}
}

func TestDecisionRecordRender(t *testing.T) {
	var got []Event
	sampleRecord().Render(func(ev Event) { got = append(got, ev) })
	if want := sampleEvents(""); !reflect.DeepEqual(got, want) {
		t.Fatalf("rendered\n%+v\nwant\n%+v", got, want)
	}
	r := sampleRecord()
	if got, want := r.Size(), 3*iterFixedBytes+8*(6+4)+4*3+dupBytes; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
	// The first iteration alone fits 60 bytes; the other two render to 8
	// events.
	head, dropped := r.prefix(60)
	if head.Len() != 1 || dropped != 8 || len(head.PV) != 1 || len(head.NewTasks) != 1 || len(head.DupTask) != 0 {
		t.Errorf("prefix(60) = %+v, %d dropped; want one iteration and 8 dropped events", head, dropped)
	}
	if all, dropped := r.prefix(r.Size()); !reflect.DeepEqual(all, r) || dropped != 0 {
		t.Errorf("prefix(Size) = %+v, %d dropped; want the whole record", all, dropped)
	}
}

// TestRecordHandOff: Named and Multi forward a record whole to the trace
// store, which keeps its own copy and renders it in place among the
// trace's other events, while an event sink behind the same wrappers
// receives the rendered events.
func TestRecordHandOff(t *testing.T) {
	ts := NewTraceStore(4, 1)
	ts.Start("t")
	col := NewCollector()
	tr := Named(Multi(ts.Tracer("t"), col), "HDLTS")
	before := Event{Type: EvReplan, Alg: "HDLTS", Task: -1, Proc: -1}
	tr.Emit(before)
	r := sampleRecord()
	EmitRecord(tr, r)
	// The caller may reuse its record once EmitRecord returns.
	r.PV[0], r.EST[1] = -1, -1
	tr.Emit(before)

	want := append(append([]Event{before}, sampleEvents("HDLTS")...), before)
	if got := col.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("collector got\n%+v\nwant\n%+v", got, want)
	}
	got, _ := ts.Get("t")
	if !reflect.DeepEqual(got.Events, want) || got.EventsDropped != 0 {
		t.Fatalf("trace ring rendered\n%+v (dropped %d)\nwant\n%+v", got.Events, got.EventsDropped, want)
	}
	if EmitRecord(Nop, sampleRecord()); col.Len() != len(want) {
		t.Error("a record reached a disabled tracer")
	}
}

// TestTraceStoreRecordCap: a record over the trace's remaining byte budget
// keeps its leading whole iterations, and nothing after the cut is kept.
func TestTraceStoreRecordCap(t *testing.T) {
	ts := NewTraceStore(4, 1)
	ts.Start("t")
	tr := Named(ts.Tracer("t"), "HDLTS")
	fill := maxTraceBytes/eventBytes - 2
	for i := 0; i < fill; i++ {
		tr.Emit(Event{Type: EvReplan, Task: -1, Proc: -1})
	}
	// 160 bytes left: iterations 1 and 2 of the sample take 132, the third
	// would take 46 more.
	EmitRecord(tr, sampleRecord())
	tr.Emit(Event{Type: EvReplan, Task: -1, Proc: -1})
	got, _ := ts.Get("t")
	if want := sampleEvents("HDLTS")[:8]; len(got.Events) != fill+len(want) || !reflect.DeepEqual(got.Events[fill:], want) {
		t.Fatalf("kept %d events, tail %+v; want %d ending in the first two iterations", len(got.Events), got.Events[fill:], fill+len(want))
	}
	if got.EventsDropped != 3+1 {
		t.Errorf("EventsDropped = %d, want 4 (the third iteration and the event after the cut)", got.EventsDropped)
	}
}

// TestDecisionLogTakesNothingAfterCut: once a record is cut, the log keeps
// nothing more, not even an event that would fit the bytes left, so what
// it holds stays a prefix of the stream.
func TestDecisionLogTakesNothingAfterCut(t *testing.T) {
	var l DecisionLog
	fill := maxTraceBytes/eventBytes - 2 // 160 bytes left
	for i := 0; i < fill; i++ {
		l.Emit(Event{Type: EvReplan, Task: -1, Proc: -1})
	}
	// Iteration 1 takes 42 bytes; iteration 2, with 100 queued tasks, 1230.
	newTasks := make([]int32, 101)
	for i := range newTasks {
		newTasks[i] = int32(i)
	}
	EmitRecord(&l, &DecisionRecord{
		Procs: 1, Task: []int32{0, 1}, Proc: []int32{0, 0}, EST: []float64{0, 1},
		Dup: []bool{false, false}, Slotted: []bool{false, false}, Entered: []int32{1, 100},
		EFT: []float64{1, 2}, PV: make([]float64, 101), NewTasks: newTasks,
	})
	l.Emit(Event{Type: EvReplan, Task: -1, Proc: -1}) // 80 of the 118 bytes left
	var kept int
	if dropped := l.Render(func(Event) { kept++ }); kept != fill+3 || dropped != 102+1 {
		t.Errorf("kept %d events, dropped %d; want %d kept and 103 dropped (iteration 2, then the event)", kept, dropped, fill+3)
	}
}

// TestTraceStoreRecordOnHub: while a subscriber listens, a stored record is
// republished as its rendered decision events.
func TestTraceStoreRecordOnHub(t *testing.T) {
	ts := NewTraceStore(4, 1)
	h := newTestHub(64)
	ts.AttachHub(h)
	ts.Start("t")
	tr := ts.Tracer("t")
	sub := h.Subscribe(StreamFilter{TraceID: "t"}, 0)
	defer sub.Close()
	EmitRecord(tr, sampleRecord())
	for i, want := range sampleEvents("") {
		ev := <-sub.C()
		if ev.Kind != KindDecision || ev.Name != want.Type.String() || ev.Proc != want.Proc {
			t.Fatalf("decision %d = %+v, want a %s on P%d", i, ev, want.Type, want.Proc)
		}
	}
}

// TestRecordKeeper: a RecordKeeper behind Named and Multi keeps an exact
// copy of the last record it is handed, stamped, sharing nothing with the
// original, and ignores single events.
func TestRecordKeeper(t *testing.T) {
	keep := new(RecordKeeper)
	if keep.Record() != nil {
		t.Fatal("empty keeper holds a record")
	}
	tr := Named(Multi(new(Collector), keep), "HDLTS")
	tr.Emit(Event{Type: EvCommit, Task: 1})
	if keep.Record() != nil {
		t.Fatal("keeper kept a single event")
	}
	r := sampleRecord()
	EmitRecord(tr, r)
	want := sampleRecord()
	want.Alg = "HDLTS"
	got := keep.Record()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %+v, want %+v", got, want)
	}
	r.PV[0], r.Task[0] = 99, 99
	if got.PV[0] != 1.5 || got.Task[0] != 0 {
		t.Fatal("kept record shares memory with the emitted one")
	}
	EmitRecord(keep, &DecisionRecord{Procs: 2})
	if keep.Record().Len() != 0 {
		t.Fatal("keeper did not replace its record")
	}
}
