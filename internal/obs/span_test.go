package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestStartSpanBuildsTree(t *testing.T) {
	ts := NewTraceStore(8, 1)
	if !ts.Start("t1") {
		t.Fatal("Start(t1) not sampled with sample=1")
	}
	ctx := WithTraceStore(WithTraceID(context.Background(), "t1"), ts)

	ctx, root := StartSpan(ctx, "http.request", "method", "POST", "path", "/v1/jobs")
	if root == nil {
		t.Fatal("root span is nil despite store + sampled trace")
	}
	cctx, child := StartSpan(ctx, "schedule.run", "alg", "HDLTS")
	if child.ParentID != root.SpanID {
		t.Errorf("child parent = %q, want root %q", child.ParentID, root.SpanID)
	}
	_, grand := StartSpan(cctx, "validate")
	if grand.ParentID != child.SpanID {
		t.Errorf("grandchild parent = %q, want child %q", grand.ParentID, child.SpanID)
	}
	grand.Finish()
	child.Finish()
	root.SetAttr("status", "200")
	root.Finish()

	tr, ok := ts.Get("t1")
	if !ok {
		t.Fatal("trace t1 lost")
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	// Finish order: grandchild, child, root.
	if tr.Spans[2].Name != "http.request" || tr.Spans[2].Attrs["status"] != "200" {
		t.Errorf("root span = %+v", tr.Spans[2])
	}
	for _, sp := range tr.Spans {
		if sp.TraceID != "t1" || sp.SpanID == "" || sp.End.Before(sp.Start) {
			t.Errorf("malformed span %+v", sp)
		}
	}
	if root.Duration() < 0 {
		t.Errorf("root duration negative")
	}
}

func TestStartSpanNoStoreIsFree(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "anything")
	if sp != nil {
		t.Fatal("span without a store should be nil")
	}
	// All methods must be nil-safe.
	sp.SetAttr("k", "v")
	sp.Finish()
	if d := sp.Duration(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	if SpanFrom(ctx) != nil {
		t.Error("nil span leaked into context")
	}
}

func TestStartSpanUnsampledTrace(t *testing.T) {
	ts := NewTraceStore(8, 2) // every second trace
	retained, dropped := 0, 0
	for i := 0; i < 10; i++ {
		if ts.Start(fmt.Sprintf("t%d", i)) {
			retained++
		} else {
			dropped++
		}
	}
	if retained != 5 || dropped != 5 {
		t.Errorf("sample=2 retained %d dropped %d of 10, want 5/5", retained, dropped)
	}
	// t1 was sampled out (t0 retained, t1 dropped, ...): spans are free nils.
	ctx := WithTraceStore(WithTraceID(context.Background(), "t1"), ts)
	if _, sp := StartSpan(ctx, "x"); sp != nil {
		t.Error("sampled-out trace produced a live span")
	}
}

func TestTraceStoreEvictsOldest(t *testing.T) {
	ts := NewTraceStore(2, 1)
	for _, id := range []string{"a", "b", "c"} {
		ts.Start(id)
	}
	if ts.Sampled("a") {
		t.Error("oldest trace survived past capacity")
	}
	if !ts.Sampled("b") || !ts.Sampled("c") {
		t.Error("recent traces evicted")
	}
	if ts.Len() != 2 || ts.Evicted() != 1 {
		t.Errorf("len %d evicted %d, want 2/1", ts.Len(), ts.Evicted())
	}
}

func TestTraceStoreStartIsIdempotent(t *testing.T) {
	ts := NewTraceStore(4, 2)
	if !ts.Start("keep") {
		t.Fatal("first new ID must be sampled in (counter starts at the boundary)")
	}
	// Re-adopting the same ID must not consume the sampling counter.
	for i := 0; i < 3; i++ {
		if !ts.Start("keep") {
			t.Fatal("re-start of a retained trace reported unsampled")
		}
	}
	// The counter advanced exactly once, so the next new ID is sampled out.
	if ts.Start("next") {
		t.Error("sampling counter consumed by idempotent re-starts")
	}
}

func TestTraceTracerRecordsEvents(t *testing.T) {
	ts := NewTraceStore(4, 1)
	ts.Start("t1")
	tr := ts.Tracer("t1")
	if !tr.Enabled() {
		t.Fatal("tracer for retained trace disabled")
	}
	tr.Emit(Event{Type: EvCommit, Alg: "HDLTS", Task: 3, Proc: 1, Start: 10, Finish: 20})
	tr.Emit(Event{Type: EvIteration, Alg: "HDLTS", Task: 3, Proc: 1, Iter: 1})
	got, ok := ts.Get("t1")
	if !ok || len(got.Events) != 2 {
		t.Fatalf("trace has %d events, want 2", len(got.Events))
	}
	if got.Events[0].Type != EvCommit || got.Events[0].Task != 3 {
		t.Errorf("event 0 = %+v", got.Events[0])
	}
	if nop := ts.Tracer("unknown"); nop.Enabled() {
		t.Error("tracer for unknown trace is enabled")
	}
}

func TestTraceEventAndSpanCaps(t *testing.T) {
	ts := NewTraceStore(2, 1)
	ts.Start("t1")
	tr := ts.Tracer("t1")
	// Single events cost their in-memory size against the byte cap.
	maxEvents := maxTraceBytes / eventBytes
	for i := 0; i < maxEvents+10; i++ {
		tr.Emit(Event{Type: EvPV, Task: i})
	}
	ctx := WithTraceStore(WithTraceID(context.Background(), "t1"), ts)
	for i := 0; i < maxSpansPerTrace+5; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.Finish()
	}
	got, _ := ts.Get("t1")
	if len(got.Events) != maxEvents || got.EventsDropped != 10 {
		t.Errorf("events = %d (dropped %d), want %d (10)",
			len(got.Events), got.EventsDropped, maxEvents)
	}
	if len(got.Spans) != maxSpansPerTrace || got.SpansDropped != 5 {
		t.Errorf("spans = %d (dropped %d), want %d (5)",
			len(got.Spans), got.SpansDropped, maxSpansPerTrace)
	}
}

func TestTraceStoreConcurrentUse(t *testing.T) {
	ts := NewTraceStore(16, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("t%d", g%4)
			ts.Start(id)
			ctx := WithTraceStore(WithTraceID(context.Background(), id), ts)
			for i := 0; i < 50; i++ {
				c, sp := StartSpan(ctx, "work")
				_, inner := StartSpan(c, "inner")
				ts.Tracer(id).Emit(Event{Type: EvCommit, Task: i})
				inner.Finish()
				sp.Finish()
				ts.Get(id)
			}
		}(g)
	}
	wg.Wait()
	if ts.Len() == 0 {
		t.Error("no traces retained after concurrent use")
	}
}

func TestNewTraceIDShape(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Errorf("trace ID lengths = %d/%d, want 16", len(a), len(b))
	}
	if a == b {
		t.Error("two trace IDs collided")
	}
}
