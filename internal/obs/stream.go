package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"

	"hdlts/internal/wire"
)

// This file is the live half of the observability layer: a broadcast Hub
// fanning decision events, span completions, and workflow transitions out
// to bounded per-subscriber buffers. The JSONL/Chrome sinks and the trace
// ring are poll-after-the-fact surfaces; the Hub is what lets a client
// watch a workflow re-plan as it happens (the SSE endpoints in
// internal/server sit directly on top of it).
//
// Design constraints, in order:
//
//   - Zero cost with no subscriber. Publish starts with one atomic load;
//     when the subscriber count is zero nothing else runs, so the solver
//     and executor hot paths pay a predicated call, exactly like the Nop
//     tracer.
//   - Slow subscribers never block publishers. Each subscription owns a
//     bounded channel; when it is full the oldest buffered event is dropped
//     to make room and the loss is counted — per subscription (so the SSE
//     layer can emit a drop marker inline) and on the exported
//     hdlts_stream_dropped_total counter.
//   - Publish order is delivery order per subscriber (one channel each).

// Metric series registered by this package for the stream hub.
const (
	metricStreamEvents      = "hdlts_stream_events_total"
	metricStreamDropped     = "hdlts_stream_dropped_total"
	metricStreamSubscribers = "hdlts_stream_subscribers"
)

// StreamEvent is one live observation on the hub, wire-encodable as-is.
// Only the fields meaningful for the Kind are set; Proc is -1 when not
// applicable. Data carries the kind-specific payload (a span, a decision
// event) already rendered to JSON so fan-out never re-marshals per
// subscriber.
type StreamEvent struct {
	// Seq is the hub-wide publication ordinal (1-based).
	Seq uint64 `json:"seq"`
	// Kind discriminates the payload; one of the Kind* constants.
	Kind string `json:"kind"`
	// TraceID correlates the event with a request trace, when known.
	TraceID string `json:"trace_id,omitempty"`
	// Workflow is the subject workflow ID (workflow transitions only).
	Workflow string `json:"workflow,omitempty"`
	// Step is the subject step name (step transitions only).
	Step string `json:"step,omitempty"`
	// Name is the span name for KindSpan events.
	Name string `json:"name,omitempty"`
	// Phase carries the re-plan trigger or terminal state, when relevant.
	Phase string `json:"phase,omitempty"`
	// Proc is the subject processor slot, or -1 when not applicable (always
	// serialized: proc 0 is a real processor, so omitempty would lie).
	Proc int `json:"proc"`
	// Time is the event time in workflow-relative seconds, when relevant.
	Time float64 `json:"t,omitempty"`
	// Value carries the scalar payload (observed seconds, frontier size).
	Value float64 `json:"value,omitempty"`
	// Data is the kind-specific JSON payload (span or decision event).
	Data json.RawMessage `json:"data,omitempty"`
	// Skipped counts events a subscriber did not see: on a KindStreamSkip
	// marker, matching events published before it attached; on a
	// KindStreamDrop marker, events dropped from its buffer since the last
	// marker.
	Skipped uint64 `json:"skipped,omitempty"`
}

// StreamFilter restricts which events a subscription receives. The zero
// value matches everything. When both TraceID and Workflow are set an event
// matches if either field does — the per-workflow feed wants the engine's
// workflow transitions (stamped with the workflow ID) and the trace store's
// spans (stamped with the submitting request's trace ID) interleaved.
type StreamFilter struct {
	// Kinds, when non-empty, is the set of accepted Kind values.
	Kinds map[string]bool
	// TraceID, when set, accepts events stamped with this trace ID.
	TraceID string
	// Workflow, when set, accepts events stamped with this workflow ID.
	Workflow string
}

// match reports whether ev passes the filter.
func (f *StreamFilter) match(ev *StreamEvent) bool {
	if len(f.Kinds) > 0 && !f.Kinds[ev.Kind] {
		return false
	}
	if f.TraceID == "" && f.Workflow == "" {
		return true
	}
	return (f.TraceID != "" && ev.TraceID == f.TraceID) ||
		(f.Workflow != "" && ev.Workflow == f.Workflow)
}

// Subscription is one attached consumer: read events from C, report losses
// with Dropped, and Close when done. Safe for one reader goroutine.
type Subscription struct {
	hub     *Hub
	filter  StreamFilter
	ch      chan StreamEvent
	dropped atomic.Uint64
	// SkippedBefore counts matching events published before this
	// subscription attached — the basis of the stream.skip marker a mid-run
	// subscriber receives. For workflow-filtered subscriptions it is the
	// per-workflow publication count; otherwise the hub-wide count.
	SkippedBefore uint64

	closeOnce sync.Once
}

// C returns the event channel. It is closed by Close (never by the hub), so
// ranging over it requires the reader to own the Close call.
func (s *Subscription) C() <-chan StreamEvent { return s.ch }

// Dropped reports how many events have been dropped from this
// subscription's buffer so far.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription from the hub and releases its buffer.
// Safe to call more than once.
func (s *Subscription) Close() {
	s.closeOnce.Do(func() {
		s.hub.unsubscribe(s)
		close(s.ch)
	})
}

// Hub is the broadcast fan-out point. All methods are safe for concurrent
// use; Publish is wait-free with respect to subscribers (a full buffer
// drops, never blocks).
type Hub struct {
	mu   sync.Mutex
	subs map[*Subscription]struct{}
	seq  uint64
	// byWorkflow counts publications per workflow ID, so a subscriber
	// attaching mid-run learns how much of its workflow's stream it missed.
	// Entries live as long as the hub — the same retention the engine's
	// in-memory record table has.
	byWorkflow map[string]uint64

	nsubs  atomic.Int64
	defBuf int

	events  *Counter
	dropped *Counter
	gauge   *Gauge
}

// DefaultStreamBuffer is the per-subscriber buffer depth when the
// subscriber does not choose one.
const DefaultStreamBuffer = 256

// NewHub returns a hub whose subscriptions default to buf buffered events
// (0 = DefaultStreamBuffer), registering its counters in reg
// (nil = Default()).
func NewHub(reg *Registry, buf int) *Hub {
	if reg == nil {
		reg = Default()
	}
	if buf <= 0 {
		buf = DefaultStreamBuffer
	}
	return &Hub{
		subs:       make(map[*Subscription]struct{}),
		byWorkflow: make(map[string]uint64),
		defBuf:     buf,
		events:     reg.Counter(metricStreamEvents),
		dropped:    reg.Counter(metricStreamDropped),
		gauge:      reg.Gauge(metricStreamSubscribers),
	}
}

// Active reports whether any subscriber is attached — the guard that keeps
// publish sites free when nobody is watching. Safe on a nil hub.
func (h *Hub) Active() bool {
	return h != nil && h.nsubs.Load() > 0
}

// Subscribe attaches a consumer with the given filter and buffer depth
// (0 = the hub default). The returned subscription immediately receives
// matching events; SkippedBefore reports how many it already missed.
func (h *Hub) Subscribe(filter StreamFilter, buf int) *Subscription {
	if buf <= 0 {
		buf = h.defBuf
	}
	s := &Subscription{hub: h, filter: filter, ch: make(chan StreamEvent, buf)}
	h.mu.Lock()
	if filter.Workflow != "" {
		s.SkippedBefore = h.byWorkflow[filter.Workflow]
	} else {
		s.SkippedBefore = h.seq
	}
	h.subs[s] = struct{}{}
	h.nsubs.Store(int64(len(h.subs)))
	h.mu.Unlock()
	h.gauge.Inc()
	return s
}

// unsubscribe detaches s (Close's half; idempotence lives in Close).
func (h *Hub) unsubscribe(s *Subscription) {
	h.mu.Lock()
	_, ok := h.subs[s]
	delete(h.subs, s)
	h.nsubs.Store(int64(len(h.subs)))
	h.mu.Unlock()
	if ok {
		h.gauge.Dec()
	}
}

// Publish broadcasts ev to every matching subscriber, stamping the hub
// sequence number. With no subscriber attached the only work is one atomic
// load — but the per-workflow skip accounting still needs workflow events
// counted, so those pay the mutex even when idle. Safe on a nil hub.
func (h *Hub) Publish(ev StreamEvent) {
	if h == nil {
		return
	}
	if !h.Active() && ev.Workflow == "" {
		return
	}
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	if ev.Workflow != "" {
		h.byWorkflow[ev.Workflow]++
	}
	for s := range h.subs {
		if !s.filter.match(&ev) {
			continue
		}
		for {
			select {
			case s.ch <- ev:
			default:
				// Buffer full: drop the oldest buffered event to make room,
				// then retry. The subscriber learns about the loss from its
				// drop counter (the SSE layer turns it into an inline
				// stream.drop marker).
				select {
				case <-s.ch:
					s.dropped.Add(1)
					h.dropped.Inc()
				default:
					// The reader drained the channel between our probes; the
					// retry will land.
				}
				continue
			}
			break
		}
	}
	h.mu.Unlock()
	h.events.Inc()
}

// Published reports how many events the hub has broadcast in total.
func (h *Hub) Published() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// PublishedFor reports how many events carried the given workflow ID.
func (h *Hub) PublishedFor(workflow string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.byWorkflow[workflow]
}

// EncodeSpan renders a finished span as a stream payload.
func EncodeSpan(s *Span) (json.RawMessage, error) {
	return json.Marshal(s)
}

// publishSpan republishes a finished span on the live stream (Kind "span",
// payload = the span's wire form). Called by the trace store outside its
// mutex, only when a subscriber is attached.
func (h *Hub) publishSpan(s *Span) {
	data, err := EncodeSpan(s)
	if err != nil {
		return
	}
	h.Publish(StreamEvent{
		Kind:    KindSpan,
		TraceID: s.TraceID,
		Name:    s.Name,
		Proc:    -1,
		Data:    data,
	})
}

// hubTracer republishes a trace's decision events on a hub (Kind "decision").
type hubTracer struct {
	hub     *Hub
	traceID string
}

func (t hubTracer) Enabled() bool                { return t.hub.Active() }
func (t hubTracer) takeRecord(r *DecisionRecord) { r.Render(t.Emit) }

// Emit publishes ev's JSONL wire form, seq 0: the hub stamps its own.
func (t hubTracer) Emit(ev Event) {
	w := wire.GetWriter(false)
	defer w.Free()
	AppendEvent(w, 0, 0, ev)
	if w.Err() != nil {
		return
	}
	t.hub.Publish(StreamEvent{
		Kind:    KindDecision,
		TraceID: t.traceID,
		Name:    ev.Type.String(),
		Proc:    ev.Proc,
		Time:    ev.Time,
		Data:    bytes.Clone(w.Bytes()),
	})
}
