// Package explain post-processes solved schedules and observed workflow
// executions into deterministic, human-readable reports: per-task placement
// rationale (the EFT candidates the solver compared, the penalty value that
// won the ITQ, duplication and slotting decisions), critical-path
// extraction with per-task slack, and per-processor utilization and
// idle-gap accounting. It is the read-only layer behind `hdltsched
// -explain`, `POST /v1/schedule?explain=1`, and `GET
// /v1/workflows/{id}/explain` — it never influences scheduling.
//
// The rationale is read from the solve's decision record: callers add an
// obs.RecordKeeper to the problem's tracer, beside any other, and hand its
// record to Schedule. Solvers that emit no record leave it nil, and their
// reports carry placements only.
//
// Schedule reports are byte-deterministic for a fixed problem: every field
// derives from the schedule and the record, both bit-reproducible, every
// list is emitted in a fixed order, and no wall-clock value appears.
// Workflow reports are built from observed execution records and inherit
// their measured (non-reproducible) durations by design.
package explain

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"hdlts/internal/dag"
	"hdlts/internal/exec"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// gapFloor suppresses float-noise idle gaps: a processor timeline whose
// slots abut within this tolerance reports no gap.
const gapFloor = 1e-9

// itqCap bounds a rationale's ITQ snapshot. Wider queues keep their top
// entries by (PV descending, task ascending), the solver's own selection
// order, and ITQWidth still reports the true size.
const itqCap = 32

// Report explains one solved schedule.
type Report struct {
	// Algorithm names the solver configuration that produced the schedule.
	Algorithm string `json:"algorithm"`
	// Tasks and Procs describe the normalised problem the schedule maps.
	Tasks int `json:"tasks"`
	Procs int `json:"procs"`
	// Makespan is the schedule length.
	Makespan float64 `json:"makespan"`
	// TotalSlack sums per-task slack (a schedule-robustness indicator);
	// CriticalTasks counts zero-slack tasks.
	TotalSlack    float64 `json:"total_slack"`
	CriticalTasks int     `json:"critical_tasks"`
	// CriticalPath lists the zero-slack tasks in execution order — the
	// chain where any overrun grows the makespan one-for-one.
	CriticalPath []CriticalHop `json:"critical_path"`
	// Placements explains every task, ascending by task ID.
	Placements []Placement `json:"placements"`
	// Processors accounts for every processor lane, ascending by index.
	Processors []ProcReport `json:"processors"`
}

// CriticalHop is one step of the critical path.
type CriticalHop struct {
	Task  int     `json:"task"`
	Name  string  `json:"name"`
	Proc  int     `json:"proc"`
	Start float64 `json:"start"`
	// Finish minus Start is the hop's direct contribution to the makespan.
	Finish float64 `json:"finish"`
}

// Placement explains where one task landed and why.
type Placement struct {
	Task int    `json:"task"`
	Name string `json:"name"`
	Proc int    `json:"proc"`
	// ProcName is the platform's label for the processor ("P3" by default).
	ProcName string  `json:"proc_name"`
	Start    float64 `json:"start"`
	Finish   float64 `json:"finish"`
	// Slack is how far the start could slip without growing the makespan;
	// Critical marks (near-)zero slack.
	Slack    float64 `json:"slack"`
	Critical bool    `json:"critical"`
	// Duplicated reports that committing this task materialised an entry
	// duplicate; Copies counts extra (duplicate) placements of this task
	// elsewhere on the platform.
	Duplicated bool `json:"duplicated,omitempty"`
	Copies     int  `json:"copies,omitempty"`
	// Rationale is the solver's decision for this task — EFT candidates
	// per processor, ITQ membership and PV at commit — when the schedule
	// comes with a decision record (nil otherwise).
	Rationale *Decision `json:"rationale,omitempty"`
}

// Decision is the rationale of one ITQ iteration: why this task, why this
// processor. Task IDs refer to the normalised problem (pseudo entry/exit
// tasks included on multi-entry/exit workflows).
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
	// to itqCap by selection priority when wider.
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

// ITQItem is one queued task in a decision's ITQ snapshot.
type ITQItem struct {
	// Task is the queued task (normalised problem IDs).
	Task dag.TaskID `json:"task"`
	// PV is the task's penalty value at the moment of the decision.
	PV float64 `json:"pv"`
}

// rationale is the explain view of a decision record on n tasks: each
// iteration's Decision, indexed by the task it committed (nil for every
// task when rec is). Queues wider than itqCap keep their top entries in
// the solver's own selection order (PV descending, task ascending), listed
// in task order.
func rationale(rec *obs.DecisionRecord, n int) []*Decision {
	byTask := make([]*Decision, n)
	if rec == nil {
		return byTask
	}
	dups := 0
	rec.Replay(func(i int, queue []int32, pv []float64) {
		sel, _ := slices.BinarySearch(queue, rec.Task[i])
		d := &Decision{
			Iter:       i + 1,
			Task:       dag.TaskID(rec.Task[i]),
			PV:         pv[sel],
			ITQWidth:   len(queue),
			ITQ:        make([]ITQItem, len(queue)),
			EFT:        slices.Clone(rec.EFT[i*rec.Procs : (i+1)*rec.Procs]),
			EST:        rec.EST[i],
			Proc:       platform.Proc(rec.Proc[i]),
			Slotted:    rec.Slotted[i],
			Duplicated: rec.Dup[i],
		}
		if d.Duplicated {
			d.DupTask = dag.TaskID(rec.DupTask[dups])
			dups++
		}
		for j, q := range queue {
			d.ITQ[j] = ITQItem{Task: dag.TaskID(q), PV: pv[j]}
		}
		if len(d.ITQ) > itqCap {
			slices.SortStableFunc(d.ITQ, func(x, y ITQItem) int { return cmp.Compare(y.PV, x.PV) })
			d.ITQ = d.ITQ[:itqCap]
			slices.SortFunc(d.ITQ, func(x, y ITQItem) int { return cmp.Compare(x.Task, y.Task) })
		}
		byTask[d.Task] = d
	})
	return byTask
}

// ProcReport accounts for one processor lane.
type ProcReport struct {
	Proc int    `json:"proc"`
	Name string `json:"name"`
	// Tasks counts slots on the lane, duplicates included.
	Tasks int `json:"tasks"`
	// Busy sums slot durations; Utilization is Busy over the makespan.
	Busy        float64 `json:"busy"`
	Utilization float64 `json:"utilization"`
	// IdleGaps lists the lane's idle windows before its last slot (a
	// leading gap counts; trailing idle up to the makespan is reported as
	// TailIdle instead, since nothing waits behind it on this lane).
	IdleGaps  []Gap   `json:"idle_gaps,omitempty"`
	IdleTotal float64 `json:"idle_total"`
	TailIdle  float64 `json:"tail_idle"`
}

// Gap is one idle window on a processor timeline.
type Gap struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Schedule builds the explainability report for a complete schedule.
// rec, when non-nil, is the decision record of the solve that produced s
// (an obs.RecordKeeper's); each iteration becomes the rationale of the
// placement of the task it committed. The schedule must be complete
// (every task placed).
func Schedule(s *sched.Schedule, algorithm string, rec *obs.DecisionRecord) (*Report, error) {
	pr := s.Problem()
	slack, err := s.ComputeSlack()
	if err != nil {
		return nil, fmt.Errorf("explain: %w", err)
	}
	n, np := pr.NumTasks(), pr.NumProcs()
	makespan := s.Makespan()

	byTask := rationale(rec, n)
	critical := make(map[dag.TaskID]bool, len(slack.Critical))
	for _, t := range slack.Critical {
		critical[t] = true
	}

	rep := &Report{
		Algorithm:     algorithm,
		Tasks:         n,
		Procs:         np,
		Makespan:      makespan,
		TotalSlack:    slack.TotalSlack,
		CriticalTasks: len(slack.Critical),
	}

	for t := 0; t < n; t++ {
		id := dag.TaskID(t)
		pl, ok := s.PlacementOf(id)
		if !ok {
			return nil, fmt.Errorf("explain: task %d unplaced", t)
		}
		p := Placement{
			Task:     t,
			Name:     taskName(pr, id),
			Proc:     int(pl.Proc),
			ProcName: pr.P.Name(pl.Proc),
			Start:    pl.Start,
			Finish:   pl.Finish,
			Slack:    slack.Slack[t],
			Critical: critical[id],
			Copies:   len(s.Copies(id)) - 1,
		}
		if d := byTask[t]; d != nil {
			p.Rationale = d
			p.Duplicated = d.Duplicated
		}
		rep.Placements = append(rep.Placements, p)
	}

	for _, t := range slack.Critical {
		pl, _ := s.PlacementOf(t)
		rep.CriticalPath = append(rep.CriticalPath, CriticalHop{
			Task:   int(t),
			Name:   taskName(pr, t),
			Proc:   int(pl.Proc),
			Start:  pl.Start,
			Finish: pl.Finish,
		})
	}
	sort.SliceStable(rep.CriticalPath, func(i, k int) bool {
		if rep.CriticalPath[i].Start != rep.CriticalPath[k].Start {
			return rep.CriticalPath[i].Start < rep.CriticalPath[k].Start
		}
		return rep.CriticalPath[i].Task < rep.CriticalPath[k].Task
	})

	for q := 0; q < np; q++ {
		proc := platform.Proc(q)
		slots := s.ProcSlots(proc)
		pRep := ProcReport{Proc: q, Name: pr.P.Name(proc)}
		cursor := 0.0
		for _, sl := range slots {
			pRep.Tasks++
			pRep.Busy += sl.End - sl.Start
			if sl.Start-cursor > gapFloor {
				pRep.IdleGaps = append(pRep.IdleGaps, Gap{Start: cursor, End: sl.Start})
				pRep.IdleTotal += sl.Start - cursor
			}
			if sl.End > cursor {
				cursor = sl.End
			}
		}
		if tail := makespan - cursor; tail > gapFloor {
			pRep.TailIdle = tail
		}
		if makespan > 0 {
			pRep.Utilization = pRep.Busy / makespan
		}
		rep.Processors = append(rep.Processors, pRep)
	}
	return rep, nil
}

// taskName labels a task: its declared name, or the positional T<n> form.
func taskName(pr *sched.Problem, t dag.TaskID) string {
	if name := pr.G.Task(t).Name; name != "" {
		return name
	}
	return fmt.Sprintf("T%d", int(t)+1)
}

// WorkflowReport explains one observed workflow execution: planned versus
// actual placements, estimate drift, queue waits, and observed per-
// processor utilization. Durations are measured wall times.
type WorkflowReport struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// MakespanSeconds is the observed end-to-end duration; Replans counts
	// ITQ recomputations the executor performed mid-run.
	MakespanSeconds float64 `json:"makespan_seconds"`
	Replans         int     `json:"replans"`
	// MovedSteps counts steps whose final processor differs from the
	// initial plan — what dynamic re-mapping changed.
	MovedSteps int `json:"moved_steps"`
	// QueueWaitSeconds totals head-of-line blocking across all steps.
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	// CriticalChain lists, in start order, the steps on the observed
	// zero-gap chain ending at the workflow's last finish.
	CriticalChain []string          `json:"critical_chain,omitempty"`
	Steps         []StepReport      `json:"steps"`
	Processors    []ProcObservation `json:"processors"`
}

// StepReport explains one step's execution.
type StepReport struct {
	Step  string `json:"step"`
	State string `json:"state"`
	// PlannedProc is the initial HDLTS placement, Proc where the step
	// actually ran; Moved marks a difference (a re-plan migrated it).
	PlannedProc int  `json:"planned_proc"`
	Proc        int  `json:"proc"`
	Moved       bool `json:"moved,omitempty"`
	// EstSeconds is the estimate the last plan used; ObservedSeconds the
	// measured duration; DriftRatio their quotient (0 until observed).
	EstSeconds      float64 `json:"est_seconds"`
	ObservedSeconds float64 `json:"observed_seconds,omitempty"`
	DriftRatio      float64 `json:"drift_ratio,omitempty"`
	// QueueWaitSeconds is the head-of-line blocking before the last attempt.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	Attempts         int     `json:"attempts,omitempty"`
	// StartSeconds/FinishSeconds are relative to the workflow start.
	StartSeconds  float64 `json:"start_seconds,omitempty"`
	FinishSeconds float64 `json:"finish_seconds,omitempty"`
}

// ProcObservation is the observed load of one processor slot.
type ProcObservation struct {
	Proc int `json:"proc"`
	// Steps counts completed executions on the slot; BusySeconds sums their
	// observed durations; Utilization is busy over the observed makespan.
	Steps       int     `json:"steps"`
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
}

// Workflow builds the execution report from a workflow record.
func Workflow(rec *exec.Record) *WorkflowReport {
	rep := &WorkflowReport{
		ID:              rec.ID,
		Name:            rec.Name,
		State:           string(rec.State),
		MakespanSeconds: rec.MakespanSeconds,
		Replans:         rec.Replans,
	}
	procs := 0
	if rec.Spec != nil {
		procs = rec.Spec.Procs
	}
	busy := make([]float64, procs)
	steps := make([]int, procs)
	for i := range rec.Steps {
		st := &rec.Steps[i]
		sr := StepReport{
			Step:             st.Name,
			State:            string(st.State),
			PlannedProc:      st.PlannedProc,
			Proc:             st.Proc,
			Moved:            st.Proc != st.PlannedProc,
			EstSeconds:       st.EstSeconds,
			ObservedSeconds:  st.ObservedSeconds,
			QueueWaitSeconds: st.QueueWaitSeconds,
			Attempts:         st.Attempts,
		}
		if st.ObservedSeconds > 0 && st.EstSeconds > 0 {
			sr.DriftRatio = st.ObservedSeconds / st.EstSeconds
		}
		if !st.StartedAt.IsZero() && !rec.StartedAt.IsZero() {
			sr.StartSeconds = st.StartedAt.Sub(rec.StartedAt).Seconds()
		}
		if !st.FinishedAt.IsZero() && !rec.StartedAt.IsZero() {
			sr.FinishSeconds = st.FinishedAt.Sub(rec.StartedAt).Seconds()
		}
		if sr.Moved {
			rep.MovedSteps++
		}
		rep.QueueWaitSeconds += st.QueueWaitSeconds
		if st.State == exec.StepDone && st.Proc >= 0 && st.Proc < procs {
			busy[st.Proc] += st.ObservedSeconds
			steps[st.Proc]++
		}
		rep.Steps = append(rep.Steps, sr)
	}
	for p := 0; p < procs; p++ {
		po := ProcObservation{Proc: p, Steps: steps[p], BusySeconds: busy[p]}
		if rep.MakespanSeconds > 0 {
			po.Utilization = busy[p] / rep.MakespanSeconds
		}
		rep.Processors = append(rep.Processors, po)
	}
	rep.CriticalChain = observedChain(rep.Steps)
	return rep
}

// observedChain walks backward from the step finishing last, at each hop
// picking the latest-finishing predecessor-in-time: the step (on any
// processor) whose finish immediately precedes the current step's start
// within a small tolerance window. It is a heuristic read of the observed
// timeline — good enough to show where the wall time went.
func observedChain(steps []StepReport) []string {
	type timed struct {
		name          string
		start, finish float64
	}
	var done []timed
	for _, s := range steps {
		if s.FinishSeconds > 0 {
			done = append(done, timed{s.Step, s.StartSeconds, s.FinishSeconds})
		}
	}
	if len(done) == 0 {
		return nil
	}
	sort.Slice(done, func(i, k int) bool {
		if done[i].finish != done[k].finish {
			return done[i].finish > done[k].finish
		}
		return done[i].name < done[k].name
	})
	const tol = 0.05 // scheduling jitter between a finish and the dependent start
	chain := []string{done[0].name}
	cur := done[0]
	visited := map[string]bool{cur.name: true}
	for {
		var best *timed
		for i := range done {
			c := &done[i]
			if visited[c.name] || c.finish > cur.start+tol {
				continue
			}
			if best == nil || c.finish > best.finish {
				best = c
			}
		}
		if best == nil || cur.start-best.finish > tol {
			break
		}
		chain = append(chain, best.name)
		visited[best.name] = true
		cur = *best
	}
	// Walked backward; present in execution order.
	for i, k := 0, len(chain)-1; i < k; i, k = i+1, k-1 {
		chain[i], chain[k] = chain[k], chain[i]
	}
	return chain
}
