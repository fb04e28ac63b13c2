// Package obs is the observability substrate shared by every layer of this
// reproduction: structured decision-event tracing plus atomic runtime
// counters, gauges, and timing histograms.
//
// The package has two halves:
//
//   - Tracing. A Tracer receives typed Events describing scheduling
//     decisions (ITQ iterations, penalty values, EST/EFT estimates,
//     placement commits) and online-execution happenings (dispatches,
//     completions, processor failures, drains, replans). The default Nop
//     tracer is guaranteed cheap: Enabled reports false and Emit performs
//     zero allocations, so instrumented hot paths cost a predicated call.
//     Two sinks ship with the package — JSONLSink (one JSON object per
//     line) and ChromeSink (Chrome trace-event format, loadable in
//     chrome://tracing or Perfetto). An HDLTS solve hands its tracer one
//     DecisionRecord instead of per-task events (EmitRecord): a
//     DecisionLog, which each trace in the trace store holds, keeps it
//     under the per-trace cap; every other tracer receives its events.
//
//   - Metrics. Counter, Gauge, and Histogram are lock-free atomics
//     registered in a Registry with Prometheus-text and JSON exposition
//     (see metrics.go). Default() is the process-wide registry the library
//     records into.
//
// Events carry only simulation-derived fields by default; wall-clock
// timestamps are opt-in per sink (JSONLSink.WallClock), so a deterministic
// run produces a byte-identical event stream.
package obs

import "sync"

// EventType discriminates Event payloads.
type EventType uint8

// Event types emitted by the scheduling substrate and the online executor.
const (
	// EvIteration is one scheduler decision iteration: for HDLTS an ITQ
	// step (Iter = step ordinal, Task = selected task, Proc = chosen
	// processor, Value = the winning penalty value, Dup = entry duplicate
	// materialised).
	EvIteration EventType = iota + 1
	// EvPV is one penalty-value computation for a ready task within an
	// iteration (Task, Iter, Value = PV).
	EvPV
	// EvEstimate is one (task, processor) EST/EFT evaluation
	// (Task, Proc, Start = EST, Finish = EFT).
	EvEstimate
	// EvCommit is a placement committed to the schedule
	// (Task, Proc, Start, Finish, Dup = this commit materialised an entry
	// duplicate first).
	EvCommit
	// EvDispatch is an online-simulation task start
	// (Task, Proc, Time = decision time, Start, Finish = realised).
	EvDispatch
	// EvComplete is an online-simulation task completion
	// (Task, Proc, Start, Finish).
	EvComplete
	// EvFailure is a processor failing at Time (Proc).
	EvFailure
	// EvDrain is a task completing on a processor that failed while the
	// task was running — the graceful drain (Task, Proc, Finish).
	EvDrain
	// EvReplan is one online policy consultation (Alg = policy, Time = now,
	// Value = ready-set size). Decision latency is recorded in the metrics
	// registry, not on the event, so deterministic streams stay stable.
	EvReplan
)

// String returns the JSONL wire name of the event type.
func (t EventType) String() string {
	switch t {
	case EvIteration:
		return "iteration"
	case EvPV:
		return "pv"
	case EvEstimate:
		return "estimate"
	case EvCommit:
		return "commit"
	case EvDispatch:
		return "dispatch"
	case EvComplete:
		return "complete"
	case EvFailure:
		return "failure"
	case EvDrain:
		return "drain"
	case EvReplan:
		return "replan"
	}
	return "unknown"
}

// Event is one observation. Only the fields meaningful for the Type are
// set; Task and Proc are -1 when not applicable. Events hold no slices or
// maps so they can be passed by value through a Tracer without allocating.
type Event struct {
	Type EventType
	// Dup marks commits that materialised an entry duplicate. It sits next
	// to Type so the two one-byte fields share one word of padding.
	Dup bool
	// Alg names the algorithm or online policy the event belongs to
	// ("HDLTS", "HEFT", "HDLTS-online", ...). Empty when unknown; the
	// Named wrapper stamps it.
	Alg string
	// Task is the subject task (-1 when not applicable).
	Task int
	// Proc is the subject processor (-1 when not applicable).
	Proc int
	// Iter is the decision-iteration ordinal (ITQ step, 1-based).
	Iter int
	// Time is the simulation time of the observation (online events).
	Time float64
	// Start and Finish delimit a span in schedule/simulation time.
	Start, Finish float64
	// Value carries the scalar payload: a penalty value, an EFT, or a
	// ready-set size, depending on Type.
	Value float64
}

// Tracer receives events. Implementations must be safe for concurrent use.
// Instrumented code guards expensive event construction with Enabled.
type Tracer interface {
	// Enabled reports whether Emit does anything; hot paths skip event
	// assembly entirely when it returns false.
	Enabled() bool
	// Emit records one event.
	Emit(Event)
}

// nop is the guaranteed-cheap default tracer.
type nop struct{}

func (nop) Enabled() bool { return false }
func (nop) Emit(Event)    {}

// Nop is the no-op tracer: Enabled is false and Emit allocates nothing.
var Nop Tracer = nop{}

// OrNop returns t, or Nop when t is nil, so callers never branch on nil.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop
	}
	return t
}

// named stamps an algorithm name on events that lack one.
type named struct {
	t   Tracer
	alg string
}

func (n named) Enabled() bool { return n.t.Enabled() }

func (n named) Emit(ev Event) {
	if ev.Alg == "" {
		ev.Alg = n.alg
	}
	n.t.Emit(ev)
}

func (n named) takeRecord(r *DecisionRecord) {
	if r.Alg == "" {
		cp := *r
		cp.Alg = n.alg
		r = &cp
	}
	EmitRecord(n.t, r)
}

// Named wraps t so every event without an Alg is attributed to alg. A nil
// or no-op t returns Nop unchanged.
func Named(t Tracer, alg string) Tracer {
	t = OrNop(t)
	if _, isNop := t.(nop); isNop {
		return Nop
	}
	return named{t: t, alg: alg}
}

// multi fans events out to several tracers.
type multi []Tracer

func (m multi) Enabled() bool {
	for _, t := range m {
		if t.Enabled() {
			return true
		}
	}
	return false
}

func (m multi) Emit(ev Event) {
	for _, t := range m {
		if t.Enabled() {
			t.Emit(ev)
		}
	}
}

func (m multi) takeRecord(r *DecisionRecord) {
	for _, t := range m {
		EmitRecord(t, r)
	}
}

// Multi combines tracers; nil and Nop entries are dropped. With zero live
// tracers it returns Nop, with one it returns that tracer unwrapped.
func Multi(ts ...Tracer) Tracer {
	var live multi
	for _, t := range ts {
		if t == nil {
			continue
		}
		if _, isNop := t.(nop); isNop {
			continue
		}
		live = append(live, t)
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return live
}

// Collector buffers events in memory, for tests and programmatic analysis.
type Collector struct {
	mu  sync.Mutex
	evs []Event
}

// NewCollector returns an empty in-memory tracer.
func NewCollector() *Collector { return &Collector{} }

// Enabled implements Tracer.
func (c *Collector) Enabled() bool { return true }

// Emit implements Tracer.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

// Events returns a copy of everything collected, in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.evs...)
}

// Len reports how many events were collected.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evs)
}

// Reset discards collected events.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.evs = nil
	c.mu.Unlock()
}
