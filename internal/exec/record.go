package exec

import (
	"encoding/json"
	"time"

	"hdlts/internal/durable"
	"hdlts/internal/wire"
)

// State is one phase of the workflow lifecycle — the durable core's,
// shared with solve jobs: a workflow is admitted queued, its run loop
// moves it to running, and it finishes done, failed (a step exhausted its
// attempts), or cancelled. A workflow that is running when the process
// dies stays running in the WAL and is resumed by the next Open.
type State = durable.State

// The five lifecycle states.
const (
	Queued    = durable.Queued
	Running   = durable.Running
	Done      = durable.Done
	Failed    = durable.Failed
	Cancelled = durable.Cancelled
)

// StepState is one phase of a step's lifecycle within a running workflow.
type StepState string

// Step lifecycle: pending (not yet dispatched, or awaiting a retry),
// running, then done or failed.
const (
	StepPending StepState = "pending"
	StepRunning StepState = "running"
	StepDone    StepState = "done"
	StepFailed  StepState = "failed"
)

// StepStatus is the live/persisted execution state of one step,
// index-aligned with the workflow definition's Steps.
type StepStatus struct {
	Name string `json:"name"`
	// State is the step's lifecycle phase.
	State StepState `json:"state"`
	// PlannedProc is the processor the initial HDLTS plan chose; Proc is
	// the current assignment (re-plans move it) and, once the step has
	// run, the processor slot it actually executed on. Comparing the two
	// shows what dynamic re-mapping changed.
	PlannedProc int `json:"planned_proc"`
	Proc        int `json:"proc"`
	// EstSeconds is the estimated duration on the current assignment (the
	// W-matrix entry the plan used); ObservedSeconds is the measured wall
	// duration of the successful attempt.
	EstSeconds      float64 `json:"est_seconds"`
	ObservedSeconds float64 `json:"observed_seconds,omitempty"`
	// QueueWaitSeconds is how long the step sat dispatchable — every
	// dependency delivered — before its processor slot freed up
	// (head-of-line blocking in the per-processor FIFO), for the latest
	// attempt.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	// Attempts counts execution attempts consumed so far.
	Attempts int `json:"attempts,omitempty"`
	// Error holds the last attempt's failure.
	Error string `json:"error,omitempty"`

	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
}

// WEntry is one observed W-matrix override: a measured execution time of
// a step (task row) on the processor it ran on, in seconds. These are the
// entries a subsequent plan of the same workflow would trust over the
// declared estimates.
type WEntry struct {
	Step    string  `json:"step"`
	Task    int     `json:"task"`
	Proc    int     `json:"proc"`
	Seconds float64 `json:"seconds"`
}

// Record is one workflow execution: the WAL unit and the value the Engine
// hands back to callers (always as a private copy).
type Record struct {
	// ID is the unique workflow handle ("wf-" + 16 hex chars).
	ID string `json:"id"`
	// Name echoes the definition's name.
	Name string `json:"name"`
	// TraceID correlates the workflow with the request that submitted it;
	// re-adopted after crash recovery so plan and (resumed) execution
	// share one trace.
	TraceID string `json:"trace_id,omitempty"`
	// Spec is the full decoded definition, kept so a recovered workflow
	// can be re-compiled and resumed without the original request.
	Spec *Workflow `json:"spec"`
	// State is the workflow lifecycle phase.
	State State `json:"state"`
	// Error holds the failure reason for failed workflows.
	Error string `json:"error,omitempty"`
	// Steps is the per-step execution state, index-aligned with Spec.Steps.
	Steps []StepStatus `json:"steps"`
	// ObservedW accumulates measured durations as W-matrix overrides, in
	// completion order.
	ObservedW []WEntry `json:"observed_w,omitempty"`
	// Replans counts ITQ recomputations over the un-dispatched frontier
	// (drift-triggered, plus one per crash-recovery resume).
	Replans int `json:"replans"`
	// Makespan is the wall duration of the whole run, set when terminal.
	MakespanSeconds float64 `json:"makespan_seconds,omitempty"`
	// Seq orders workflows by submission (monotonic across restarts).
	Seq uint64 `json:"seq"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// clone returns an independent deep copy safe to hand outside the
// Engine's lock.
func (r *Record) clone() *Record {
	c := *r
	c.Steps = append([]StepStatus(nil), r.Steps...)
	c.ObservedW = append([]WEntry(nil), r.ObservedW...)
	if r.Spec != nil {
		spec := *r.Spec
		spec.Steps = append([]Step(nil), r.Spec.Steps...)
		c.Spec = &spec
	}
	return &c
}

// RecordID, RecordSeq and RecordState expose the workflow to the durable
// table.
func (r *Record) RecordID() string           { return r.ID }
func (r *Record) RecordSeq() uint64          { return r.Seq }
func (r *Record) RecordState() durable.State { return r.State }

// AppendRecord writes r, a WAL payload or snapshot element, with the bytes
// json.Marshal writes for a Record.
func (r *Record) AppendRecord(w *wire.Writer) {
	w.BeginObject()
	w.Key("id")
	w.String(r.ID)
	w.Key("name")
	w.String(r.Name)
	if r.TraceID != "" {
		w.Key("trace_id")
		w.String(r.TraceID)
	}
	w.Key("spec")
	r.Spec.appendJSON(w)
	w.Key("state")
	w.String(string(r.State))
	if r.Error != "" {
		w.Key("error")
		w.String(r.Error)
	}
	w.Key("steps")
	if r.Steps == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range r.Steps {
			w.BeginObject()
			r.Steps[i].appendFields(w)
			w.EndObject()
		}
		w.EndArray()
	}
	if len(r.ObservedW) > 0 {
		w.Key("observed_w")
		appendWEntries(w, r.ObservedW)
	}
	w.Key("replans")
	w.Int(r.Replans)
	if r.MakespanSeconds != 0 {
		w.Key("makespan_seconds")
		w.Float(r.MakespanSeconds)
	}
	w.Key("seq")
	w.Uint64(r.Seq)
	w.Key("submitted_at")
	w.Time(r.SubmittedAt)
	w.Key("started_at")
	w.Time(r.StartedAt)
	w.Key("finished_at")
	w.Time(r.FinishedAt)
	w.EndObject()
}

// appendJSON writes the definition as json.Marshal writes a *Workflow,
// null included.
func (wf *Workflow) appendJSON(w *wire.Writer) {
	if wf == nil {
		w.Null()
		return
	}
	w.BeginObject()
	w.Key("name")
	w.String(wf.Name)
	w.Key("procs")
	w.Int(wf.Procs)
	if wf.Drift != 0 {
		w.Key("drift")
		w.Float(wf.Drift)
	}
	w.Key("steps")
	if wf.Steps == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range wf.Steps {
			wf.Steps[i].appendJSON(w)
		}
		w.EndArray()
	}
	w.EndObject()
}

// appendJSON writes the step as json.Marshal writes a Step.
func (st *Step) appendJSON(w *wire.Writer) {
	w.BeginObject()
	w.Key("name")
	w.String(st.Name)
	w.Key("command")
	w.String(st.Command)
	if len(st.Depends) > 0 {
		w.Key("depends")
		appendStrings(w, st.Depends)
	}
	if len(st.Costs) > 0 {
		w.Key("costs")
		w.BeginArray()
		for _, c := range st.Costs {
			w.Float(c)
		}
		w.EndArray()
	}
	if st.Timeout != 0 {
		w.Key("timeout")
		w.Int64(int64(st.Timeout))
	}
	if st.Retries != 0 {
		w.Key("retries")
		w.Int(st.Retries)
	}
	if len(st.Env) > 0 {
		w.Key("env")
		appendStrings(w, st.Env)
	}
	w.EndObject()
}

func appendStrings(w *wire.Writer, ss []string) {
	w.BeginArray()
	for _, s := range ss {
		w.String(s)
	}
	w.EndArray()
}

// appendFields writes the members json.Marshal writes for a StepStatus,
// into an object the caller opens: a patch's changed step precedes them
// with its index.
func (st *StepStatus) appendFields(w *wire.Writer) {
	w.Key("name")
	w.String(st.Name)
	w.Key("state")
	w.String(string(st.State))
	w.Key("planned_proc")
	w.Int(st.PlannedProc)
	w.Key("proc")
	w.Int(st.Proc)
	w.Key("est_seconds")
	w.Float(st.EstSeconds)
	if st.ObservedSeconds != 0 {
		w.Key("observed_seconds")
		w.Float(st.ObservedSeconds)
	}
	if st.QueueWaitSeconds != 0 {
		w.Key("queue_wait_seconds")
		w.Float(st.QueueWaitSeconds)
	}
	if st.Attempts != 0 {
		w.Key("attempts")
		w.Int(st.Attempts)
	}
	if st.Error != "" {
		w.Key("error")
		w.String(st.Error)
	}
	w.Key("started_at")
	w.Time(st.StartedAt)
	w.Key("finished_at")
	w.Time(st.FinishedAt)
}

// appendWEntries writes observed W entries as json.Marshal writes a
// []WEntry.
func appendWEntries(w *wire.Writer, es []WEntry) {
	w.BeginArray()
	for _, e := range es {
		w.BeginObject()
		w.Key("step")
		w.String(e.Step)
		w.Key("task")
		w.Int(e.Task)
		w.Key("proc")
		w.Int(e.Proc)
		w.Key("seconds")
		w.Float(e.Seconds)
		w.EndObject()
	}
	w.EndArray()
}

// DecodeRecord decodes one workflow record or patch, a WAL payload or
// snapshot element: the durable core walks the line with internal/wire,
// and the record's own bytes go through UnmarshalJSON.
func (r *Record) DecodeRecord(s *wire.Scanner) error {
	raw, err := s.Raw()
	if err != nil {
		return err
	}
	return r.UnmarshalJSON(raw)
}

// recordPatch is the payload of a workflow's patch WAL line: the top-level
// scalars, the steps a run-loop pass changed (each whole, at its index),
// and the observed W entries appended since the record's previous line.
// The spec and the unchanged steps stay in the lines before it.
type recordPatch struct {
	State           State     `json:"state"`
	Error           string    `json:"error"`
	Replans         int       `json:"replans"`
	MakespanSeconds float64   `json:"makespan_seconds"`
	StartedAt       time.Time `json:"started_at"`
	FinishedAt      time.Time `json:"finished_at"`
	patchKeys
}

// patchKeys are the keys of a patch payload that a full record does not
// have. ObservedWAdded replaces ObservedW from index ObservedWFrom on, so
// applying a patch twice — once through a compaction snapshot taken while
// it was staged, once from the WAL — appends its entries once.
type patchKeys struct {
	ChangedSteps   []indexedStep `json:"changed_steps,omitempty"`
	ObservedWFrom  int           `json:"observed_w_from,omitempty"`
	ObservedWAdded []WEntry      `json:"observed_w_added,omitempty"`
}

// indexedStep is one changed step of a patch, written whole.
type indexedStep struct {
	Index int `json:"index"`
	*StepStatus
}

// patch builds the payload of r's patch line for a pass that changed the
// steps marked in changed, with wFrom entries of ObservedW already on disk
// (caller holds the engine lock until the line is staged: it points into
// r).
func (r *Record) patch(changed []bool, wFrom int) *recordPatch {
	p := &recordPatch{State: r.State, Error: r.Error, Replans: r.Replans,
		MakespanSeconds: r.MakespanSeconds, StartedAt: r.StartedAt, FinishedAt: r.FinishedAt}
	for i, c := range changed {
		if c {
			p.ChangedSteps = append(p.ChangedSteps, indexedStep{Index: i, StepStatus: &r.Steps[i]})
		}
	}
	if wFrom < len(r.ObservedW) {
		p.ObservedWFrom, p.ObservedWAdded = wFrom, r.ObservedW[wFrom:]
	}
	return p
}

// AppendRecord writes the patch as a WAL payload, with the bytes
// json.Marshal writes for a recordPatch.
func (p *recordPatch) AppendRecord(w *wire.Writer) {
	w.BeginObject()
	w.Key("state")
	w.String(string(p.State))
	w.Key("error")
	w.String(p.Error)
	w.Key("replans")
	w.Int(p.Replans)
	w.Key("makespan_seconds")
	w.Float(p.MakespanSeconds)
	w.Key("started_at")
	w.Time(p.StartedAt)
	w.Key("finished_at")
	w.Time(p.FinishedAt)
	if len(p.ChangedSteps) > 0 {
		w.Key("changed_steps")
		w.BeginArray()
		for _, st := range p.ChangedSteps {
			w.BeginObject()
			w.Key("index")
			w.Int(st.Index)
			if st.StepStatus != nil {
				st.appendFields(w)
			}
			w.EndObject()
		}
		w.EndArray()
	}
	if p.ObservedWFrom != 0 {
		w.Key("observed_w_from")
		w.Int(p.ObservedWFrom)
	}
	if len(p.ObservedWAdded) > 0 {
		w.Key("observed_w_added")
		appendWEntries(w, p.ObservedWAdded)
	}
	w.EndObject()
}

// UnmarshalJSON decodes a full record, or merges a patch payload into r:
// keys it leaves out keep their values, each changed step replaces the
// step at its index, and the added observed W entries replace ObservedW
// from their index on. A changed step or observed W index outside the
// record is ignored, so a patch decodes without error into any record it
// decodes into without error.
func (r *Record) UnmarshalJSON(b []byte) error {
	type fields Record // without this method
	var p struct {
		*fields
		patchKeys
	}
	p.fields = (*fields)(r)
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	for _, st := range p.ChangedSteps {
		if st.StepStatus != nil && st.Index >= 0 && st.Index < len(r.Steps) {
			r.Steps[st.Index] = *st.StepStatus
		}
	}
	if from := p.ObservedWFrom; p.ObservedWAdded != nil && from >= 0 && from <= len(r.ObservedW) {
		r.ObservedW = append(r.ObservedW[:from], p.ObservedWAdded...)
	}
	return nil
}
