package core

import (
	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// This file holds the explain surface of the solver: the Decision log
// ScheduleExplained returns, one entry per ITQ iteration. It is a view
// (decisionsOf, record.go) of the same decision record that tracer events
// and the Table-I trace are rendered from.

// itqCaptureCap bounds the per-decision ITQ snapshot. Wider frontiers keep
// their top entries by (PV descending, task ascending) — the solver's own
// selection order — and ITQWidth still reports the true size.
const itqCaptureCap = 32

// ITQItem is one queued task in a decision's ITQ snapshot.
type ITQItem struct {
	// Task is the queued task (normalised problem IDs).
	Task dag.TaskID `json:"task"`
	// PV is the task's penalty value at the moment of the decision.
	PV float64 `json:"pv"`
}

// Decision is the full rationale of one ITQ iteration: why this task, why
// this processor. Task IDs refer to the normalised problem (pseudo
// entry/exit tasks included on multi-entry/exit workflows).
type Decision struct {
	// Iter is the 1-based ITQ iteration ordinal.
	Iter int `json:"iter"`
	// Task is the committed task.
	Task dag.TaskID `json:"task"`
	// PV is the committed task's penalty value — the maximum over the ITQ,
	// ties broken to the smaller task ID.
	PV float64 `json:"pv"`
	// ITQWidth is the queue size at the decision (before removal).
	ITQWidth int `json:"itq_width"`
	// ITQ snapshots the queue membership, ascending by task ID, truncated
	// to itqCaptureCap by selection priority when wider.
	ITQ []ITQItem `json:"itq,omitempty"`
	// EFT is the candidate earliest-finish-time vector by processor — what
	// the solver compared to pick Proc.
	EFT []float64 `json:"eft"`
	// EST and the winning EFT (EFT[Proc]) delimit the committed slot.
	EST float64 `json:"est"`
	// Proc is the chosen processor (minimum EFT, or best lookahead score).
	Proc platform.Proc `json:"proc"`
	// Slotted reports insertion-based placement into an idle gap: the slot
	// starts before the processor's append point did at commit time. Always
	// false under the paper's avail-based placement.
	Slotted bool `json:"slotted"`
	// Duplicated reports that the commit materialised an entry duplicate on
	// Proc; DupTask is the duplicated entry task when it did.
	Duplicated bool       `json:"duplicated"`
	DupTask    dag.TaskID `json:"dup_task,omitempty"`
}

// ScheduleExplained is Schedule plus the per-iteration decision log the
// explain surfaces are built from. It runs the same indexed core as every
// other solve; when the problem carries a tracer, the solve's decision
// events reach it too. The schedule is bit-identical to Schedule's
// (differentially tested in TestIndexedMatchesReferenceBytes).
func (h *HDLTS) ScheduleExplained(pr *sched.Problem) (*sched.Schedule, []Decision, error) {
	var decisions []Decision
	s, err := h.run(pr, nil, func(dr *obs.DecisionRecord) { decisions = decisionsOf(dr) })
	if err != nil {
		return nil, nil, err
	}
	return s, decisions, nil
}
