package obs

// Canonical span-attribute keys. Every SetAttr / StartSpan attribute key
// in the module must be one of these constants (enforced by the eventkey
// analyzer): trace consumers — /v1/trace filters, the replay tool,
// downstream pipelines — match on these strings, so the vocabulary is
// closed and lives here.
const (
	// KeyAlg names the scheduling algorithm acting in the span.
	KeyAlg = "alg"
	// KeyMethod is the HTTP request method.
	KeyMethod = "method"
	// KeyPath is the HTTP request path.
	KeyPath = "path"
	// KeyStatus is the HTTP response status code.
	KeyStatus = "status"
	// KeyTask is a task index.
	KeyTask = "task"
	// KeyPhase is an algorithm phase name.
	KeyPhase = "phase"
	// KeyJob is a job identifier.
	KeyJob = "job"
	// KeyWorkflow is a workflow identifier.
	KeyWorkflow = "workflow"
	// KeyStep is a workflow step name.
	KeyStep = "step"
	// KeyProc is a processor index.
	KeyProc = "proc"
)

// Canonical wire-field names: the JSON keys the obs package is allowed to
// emit: the keys AppendEvent writes and the json tags of the wire structs
// (traceEvent, Span, BuildInfo, jsonMetric). The eventkey analyzer checks
// every json tag in this package against this set, so adding a wire field
// means adding a constant here — a deliberate speed bump on schema growth.
const (
	// JSONL decision-event stream (AppendEvent).
	WireSeq    = "seq"
	WireEvent  = "ev"
	WireWallNS = "wall_ns"
	WireAlg    = "alg"
	WireTask   = "task"
	WireProc   = "proc"
	WireIter   = "iter"
	WireTime   = "t"
	WireStart  = "start"
	WireFinish = "finish"
	WireValue  = "value"
	WireDup    = "dup"

	// Chrome trace events (traceEvent).
	WireName  = "name"
	WirePh    = "ph"
	WirePID   = "pid"
	WireTID   = "tid"
	WireTS    = "ts"
	WireDur   = "dur"
	WireScope = "s"
	WireArgs  = "args"

	// Build info.
	WireVersion   = "version"
	WireGoVersion = "go_version"
	WireRevision  = "revision"
	WireModified  = "modified"

	// Metrics JSON exposition (jsonMetric).
	WireLabels = "labels"
	WireKind   = "kind"
	WireCount  = "count"
	WireSum    = "sum"
	WireMean   = "mean"

	// Spans and traces.
	WireTraceID       = "trace_id"
	WireSpanID        = "span_id"
	WireParentID      = "parent_id"
	WireEnd           = "end"
	WireAttrs         = "attrs"
	WireSpans         = "spans"
	WireSpansDropped  = "spans_dropped"
	WireEventsDropped = "events_dropped"

	// Live event stream (StreamEvent).
	WireData    = "data"
	WireSkipped = "skipped"
)

// Canonical stream-event kinds: the values StreamEvent.Kind may carry, and
// the SSE `event:` names subscribers filter on. Closed for the same reason
// as the Key*/Wire* sets — live dashboards and the CI smoke tests match on
// these strings.
const (
	// KindSpan is a finished span republished from the trace store; the
	// payload is the span's wire form.
	KindSpan = "span"
	// KindDecision is a scheduler decision event republished from the trace
	// store; the payload is the JSONL wire form of the event.
	KindDecision = "decision"
	// KindWorkflowPlan marks a workflow admitted with an initial HDLTS plan.
	KindWorkflowPlan = "workflow.plan"
	// KindStepRun marks a step dispatched onto a processor slot.
	KindStepRun = "step.run"
	// KindStepDone marks a step attempt finishing successfully.
	KindStepDone = "step.done"
	// KindStepFail marks a step attempt failing (it may still be retried).
	KindStepFail = "step.fail"
	// KindWorkflowReplan marks an ITQ recomputation over the un-dispatched
	// frontier; Phase carries the trigger (drift, overdue, resume, stall).
	KindWorkflowReplan = "workflow.replan"
	// KindWorkflowDone marks a workflow reaching a terminal state; Phase
	// carries the state (done, failed, cancelled).
	KindWorkflowDone = "workflow.done"
	// KindStreamSkip is the synthetic marker a subscriber receives when
	// events matching its filter were published before it attached.
	KindStreamSkip = "stream.skip"
	// KindStreamDrop is the synthetic marker a slow subscriber receives
	// after the hub dropped events from its buffer.
	KindStreamDrop = "stream.drop"
)
