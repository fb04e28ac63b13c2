package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// This file is the span half of the tracing layer: where Event records what
// a scheduler decided, a Span records how long one operation of the serving
// path took and which operation caused it. Spans form a tree per trace —
// every span carries the trace ID, its own ID, and its parent's — and the
// trace ID is carried through the process via context.Context, so the HTTP
// layer, the job subsystem, and the scheduler all stamp the same ID without
// knowing about each other.
//
// Finished spans land in a TraceStore: a bounded in-memory ring of traces
// keyed by trace ID, each holding the span tree plus the decision events
// and decision records emitted while that trace was active. The store is
// the backing for GET /v1/jobs/{id}/trace — answer "why was this mapping
// chosen?" for any single request, after the fact, from its ID alone.

// Span is one timed operation within a trace. ParentID is empty on the
// root. Attrs carry small string facts (method, path, algorithm, status).
type Span struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	Attrs    map[string]string `json:"attrs,omitempty"`

	store *TraceStore // recorded into on Finish; nil on the no-op span
}

// SetAttr records one attribute on the span. Safe on a nil span (the
// no-op path hands nil spans out), not safe for concurrent use — a span
// belongs to one goroutine between Start and Finish.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[k] = v
}

// Finish stamps the end time and commits the span to its trace. Safe on a
// nil span; finishing twice records the span once (the second call is
// ignored by the store only if the trace was evicted meanwhile — callers
// should finish exactly once, typically via defer).
func (s *Span) Finish() {
	if s == nil || s.store == nil {
		return
	}
	s.End = time.Now()
	st := s.store
	s.store = nil
	st.addSpan(s)
}

// Duration is End minus Start (zero until Finish).
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// ctxKey keys the tracing values carried via context.Context.
type ctxKey int

const (
	ctxTraceID ctxKey = iota
	ctxSpan
	ctxStore
)

// WithTraceID returns ctx carrying the trace ID; everything downstream —
// spans, job records, decision events — stamps this ID.
func WithTraceID(ctx context.Context, traceID string) context.Context {
	return context.WithValue(ctx, ctxTraceID, traceID)
}

// TraceIDFrom returns the trace ID carried by ctx, or "".
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxTraceID).(string)
	return id
}

// WithTraceStore returns ctx carrying the store StartSpan records into.
func WithTraceStore(ctx context.Context, ts *TraceStore) context.Context {
	return context.WithValue(ctx, ctxStore, ts)
}

// TraceStoreFrom returns the store carried by ctx, or nil.
func TraceStoreFrom(ctx context.Context) *TraceStore {
	ts, _ := ctx.Value(ctxStore).(*TraceStore)
	return ts
}

// SpanFrom returns the innermost active span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxSpan).(*Span)
	return s
}

// StartSpan begins a span named name under ctx's current span and returns
// the child context carrying it. attrs are alternating key, value pairs.
// When ctx carries no store, no trace ID, or a trace the store sampled
// out, StartSpan is free: it returns ctx unchanged and a nil span whose
// methods no-op — instrumented paths need no branches.
func StartSpan(ctx context.Context, name string, attrs ...string) (context.Context, *Span) {
	ts := TraceStoreFrom(ctx)
	if ts == nil {
		return ctx, nil
	}
	traceID := TraceIDFrom(ctx)
	if traceID == "" || !ts.Sampled(traceID) {
		return ctx, nil
	}
	sp := &Span{
		TraceID: traceID,
		SpanID:  NewSpanID(),
		Name:    name,
		Start:   time.Now(),
		store:   ts,
	}
	if parent := SpanFrom(ctx); parent != nil {
		sp.ParentID = parent.SpanID
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		//lint:hdltsvet-ignore eventkey forwarding variadic attrs whose keys were checked at the caller
		sp.SetAttr(attrs[i], attrs[i+1])
	}
	return context.WithValue(ctx, ctxSpan, sp), sp
}

// NewTraceID draws a fresh 16-hex-character trace ID from crypto/rand —
// the shape a generated X-Request-ID takes.
func NewTraceID() string { return randHex8() }

// NewSpanID draws a fresh span ID.
func NewSpanID() string { return randHex8() }

func randHex8() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; ID allocation has no
		// degraded mode.
		panic("obs: crypto/rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Per-trace retention bounds: a runaway scheduler must not balloon one
// trace without limit. Decision state is capped in bytes (DecisionLog): a
// stored event costs its in-memory size and a decision record its Size,
// and the cap equals 4096 stored events.
const (
	maxSpansPerTrace = 512
	maxTraceBytes    = 4096 * eventBytes
)

// Trace is one finished or in-progress trace snapshot: the span tree
// (flat, linked by ParentID) plus the decision events recorded while the
// trace was active, in emission order, with decision records rendered.
type Trace struct {
	TraceID       string  `json:"trace_id"`
	Spans         []*Span `json:"spans"`
	Events        []Event `json:"-"` // wire-encode with AppendEvent
	SpansDropped  int     `json:"spans_dropped,omitempty"`
	EventsDropped int     `json:"events_dropped,omitempty"`
}

// traceEntry is the store's mutable per-trace state.
type traceEntry struct {
	spans        []*Span
	spansDropped int
	decisions    DecisionLog
}

// TraceStore retains recent traces in a bounded in-memory ring: starting a
// trace beyond capacity evicts the oldest. Sampling is decided once per
// trace ID at Start — with sample N, one in every N new IDs is retained —
// so high-QPS deployments shed tracing cost without touching call sites.
// All methods are safe for concurrent use.
type TraceStore struct {
	mu      sync.Mutex
	cap     int
	sample  int
	started uint64 // new-trace counter driving the sampling decision
	traces  map[string]*traceEntry
	order   []string // insertion order, oldest first, for eviction
	evicted uint64
	hub     *Hub // live republish target; nil until AttachHub
}

// AttachHub makes the store republish every committed span (Kind "span")
// and decision event (Kind "decision") on h, so live subscribers see what
// the trace ring records — publication happens outside the store's mutex
// and only while a subscriber is attached. Call before the store starts
// receiving traffic.
func (ts *TraceStore) AttachHub(h *Hub) {
	ts.mu.Lock()
	ts.hub = h
	ts.mu.Unlock()
}

// NewTraceStore returns a store retaining up to capacity traces (default
// 512) and sampling one in every sample new trace IDs (default 1 = all).
func NewTraceStore(capacity, sample int) *TraceStore {
	if capacity <= 0 {
		capacity = 512
	}
	if sample <= 0 {
		sample = 1
	}
	return &TraceStore{
		cap:    capacity,
		sample: sample,
		traces: make(map[string]*traceEntry),
	}
}

// Start adopts traceID into the store and reports whether it is retained.
// An ID already present is retained without consuming the sampling
// counter, so re-submissions and post-restart job runs rejoin their trace.
func (ts *TraceStore) Start(traceID string) bool {
	if traceID == "" {
		return false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.traces[traceID]; ok {
		return true
	}
	ts.started++
	if (ts.started-1)%uint64(ts.sample) != 0 {
		return false
	}
	for len(ts.order) >= ts.cap {
		oldest := ts.order[0]
		ts.order = ts.order[1:]
		delete(ts.traces, oldest)
		ts.evicted++
	}
	ts.traces[traceID] = &traceEntry{}
	ts.order = append(ts.order, traceID)
	return true
}

// Sampled reports whether traceID is currently retained.
func (ts *TraceStore) Sampled(traceID string) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	_, ok := ts.traces[traceID]
	return ok
}

// addSpan commits one finished span; spans for evicted traces are dropped
// from the ring but still reach live subscribers (a watcher should see the
// span even when the bounded ring cannot keep it).
func (ts *TraceStore) addSpan(s *Span) {
	ts.mu.Lock()
	e, ok := ts.traces[s.TraceID]
	if ok {
		if len(e.spans) >= maxSpansPerTrace {
			e.spansDropped++
		} else {
			e.spans = append(e.spans, s)
		}
	}
	hub := ts.hub
	ts.mu.Unlock()
	if ok && hub.Active() {
		hub.publishSpan(s)
	}
}

// Get returns a snapshot of the trace, or false when the ID was never
// started, sampled out, or already evicted. Decision records are rendered
// into Events here, outside the store's mutex: records are immutable.
func (ts *TraceStore) Get(traceID string) (*Trace, bool) {
	ts.mu.Lock()
	e, ok := ts.traces[traceID]
	if !ok {
		ts.mu.Unlock()
		return nil, false
	}
	t := &Trace{
		TraceID:      traceID,
		Spans:        append([]*Span(nil), e.spans...),
		SpansDropped: e.spansDropped,
	}
	ts.mu.Unlock()
	t.EventsDropped = e.decisions.Render(func(ev Event) { t.Events = append(t.Events, ev) })
	return t, true
}

// Len reports how many traces are retained.
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.traces)
}

// Evicted reports how many traces the ring has dropped for capacity.
func (ts *TraceStore) Evicted() uint64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.evicted
}

// Tracer returns a Tracer keeping decision events in traceID's trace, or
// Nop when the trace is not retained — attach it to a Problem with
// WithTracer and the scheduler's decision log lands next to the span tree.
// While a hub subscriber listens it also republishes each event, uncut.
func (ts *TraceStore) Tracer(traceID string) Tracer {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.traces[traceID]
	if !ok {
		return Nop
	}
	return Multi(&e.decisions, hubTracer{hub: ts.hub, traceID: traceID})
}
