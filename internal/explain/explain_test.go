package explain

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"hdlts/internal/core"
	"hdlts/internal/exec"
	"hdlts/internal/gen"
	"hdlts/internal/obs"
	"hdlts/internal/sched"
)

func solveExplained(t *testing.T, seed int64) (*sched.Schedule, *obs.DecisionRecord, *sched.Problem) {
	t.Helper()
	pr, err := gen.Random(gen.Params{
		V: 200, Alpha: 1.5, Density: 3, CCR: 2, Procs: 5, WDAG: 80, Beta: 1.2,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	s, rec := solve(t, core.New(), pr)
	return s, rec, pr
}

func TestScheduleReportStructure(t *testing.T) {
	s, decs, _ := solveExplained(t, 5)
	rep, err := Schedule(s, "HDLTS", decs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != len(rep.Placements) {
		t.Fatalf("placements %d != tasks %d", len(rep.Placements), rep.Tasks)
	}
	if rep.Procs != len(rep.Processors) {
		t.Fatalf("processors %d != procs %d", len(rep.Processors), rep.Procs)
	}
	if len(rep.CriticalPath) == 0 || rep.CriticalTasks != len(rep.CriticalPath) {
		t.Fatalf("critical path %d hops, %d critical tasks", len(rep.CriticalPath), rep.CriticalTasks)
	}
	// The critical path ends at the makespan and is ordered by start.
	last := rep.CriticalPath[len(rep.CriticalPath)-1]
	if math.Abs(last.Finish-rep.Makespan) > 1e-9 {
		t.Fatalf("critical path ends at %g, makespan %g", last.Finish, rep.Makespan)
	}
	for i := 1; i < len(rep.CriticalPath); i++ {
		if rep.CriticalPath[i].Start < rep.CriticalPath[i-1].Start {
			t.Fatal("critical path not ordered by start")
		}
	}
	for _, p := range rep.Placements {
		if p.Rationale == nil {
			t.Fatalf("task %d: no rationale despite capture", p.Task)
		}
		if p.Rationale.Task != 0 && int(p.Rationale.Task) != p.Task {
			t.Fatalf("task %d: rationale for task %d", p.Task, p.Rationale.Task)
		}
		if p.Critical && p.Slack > 1e-9 {
			t.Fatalf("task %d: critical with slack %g", p.Task, p.Slack)
		}
	}
	// Per-processor accounting closes: busy + idle + tail = makespan on
	// every lane with at least one slot.
	for _, pr := range rep.Processors {
		if pr.Tasks == 0 {
			continue
		}
		total := pr.Busy + pr.IdleTotal + pr.TailIdle
		if math.Abs(total-rep.Makespan) > 1e-6 {
			t.Fatalf("P%d accounting: busy %g + idle %g + tail %g != makespan %g",
				pr.Proc+1, pr.Busy, pr.IdleTotal, pr.TailIdle, rep.Makespan)
		}
		if pr.Utilization < 0 || pr.Utilization > 1+1e-9 {
			t.Fatalf("P%d utilization %g out of range", pr.Proc+1, pr.Utilization)
		}
	}
}

// TestScheduleReportByteDeterministic pins the acceptance criterion: two
// independent solve+report passes over the same problem marshal to
// identical bytes.
func TestScheduleReportByteDeterministic(t *testing.T) {
	render := func() []byte {
		s, decs, _ := solveExplained(t, 9)
		rep, err := Schedule(s, "HDLTS", decs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := render(), render()
	if !bytes.Equal(b1, b2) {
		t.Fatal("explain report bytes differ across identical solves")
	}
}

func TestScheduleReportWithoutCapture(t *testing.T) {
	s, _, _ := solveExplained(t, 7)
	rep, err := Schedule(s, "HDLTS", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Placements {
		if p.Rationale != nil {
			t.Fatal("rationale present without capture")
		}
	}
}

func TestWorkflowReport(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	rec := &exec.Record{
		ID:    "wf-test",
		Name:  "demo",
		State: exec.Done,
		Spec: &exec.Workflow{
			Name:  "demo",
			Procs: 2,
			Steps: []exec.Step{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		},
		Replans:         1,
		MakespanSeconds: 3.0,
		StartedAt:       t0,
		Steps: []exec.StepStatus{
			{Name: "a", State: exec.StepDone, PlannedProc: 0, Proc: 0,
				EstSeconds: 1, ObservedSeconds: 1.0,
				StartedAt: t0, FinishedAt: t0.Add(1 * time.Second)},
			{Name: "b", State: exec.StepDone, PlannedProc: 1, Proc: 0,
				EstSeconds: 1, ObservedSeconds: 2.0, QueueWaitSeconds: 1.0,
				StartedAt: t0.Add(1 * time.Second), FinishedAt: t0.Add(3 * time.Second)},
			{Name: "c", State: exec.StepDone, PlannedProc: 1, Proc: 1,
				EstSeconds: 1, ObservedSeconds: 1.0,
				StartedAt: t0, FinishedAt: t0.Add(1 * time.Second)},
		},
	}
	rep := Workflow(rec)
	if rep.MovedSteps != 1 {
		t.Fatalf("MovedSteps = %d, want 1", rep.MovedSteps)
	}
	if rep.QueueWaitSeconds != 1.0 {
		t.Fatalf("QueueWaitSeconds = %g, want 1", rep.QueueWaitSeconds)
	}
	if rep.Steps[1].DriftRatio != 2.0 {
		t.Fatalf("step b drift = %g, want 2", rep.Steps[1].DriftRatio)
	}
	if len(rep.Processors) != 2 || rep.Processors[0].Steps != 2 || rep.Processors[0].BusySeconds != 3.0 {
		t.Fatalf("processor accounting: %+v", rep.Processors)
	}
	if rep.Processors[0].Utilization != 1.0 {
		t.Fatalf("P1 utilization = %g, want 1", rep.Processors[0].Utilization)
	}
	// The observed chain walks b back to a (b starts as a finishes).
	if len(rep.CriticalChain) != 2 || rep.CriticalChain[0] != "a" || rep.CriticalChain[1] != "b" {
		t.Fatalf("critical chain = %v, want [a b]", rep.CriticalChain)
	}
}
