package core

import (
	"testing"

	"hdlts/internal/obs"
	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

// TestIterationCounterPerSolve pins hdlts_iterations_total, which the
// indexed core lands once per solve: the paper example takes 10 ITQ
// iterations, and a seeded Extend one per task it places.
func TestIterationCounterPerSolve(t *testing.T) {
	before := iterationCount.Value()
	if _, err := New().Schedule(workflows.PaperExample()); err != nil {
		t.Fatal(err)
	}
	if d := iterationCount.Value() - before; d != 10 {
		t.Errorf("paper example advanced the counter by %d, want 10", d)
	}

	pr := workflows.PaperExample().Normalize()
	order, err := pr.G.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	const seeded = 4
	s := sched.NewSchedule(pr)
	for _, task := range order[:seeded] {
		e, err := s.BestEFT(task, sched.InsertionPolicy)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(e); err != nil {
			t.Fatal(err)
		}
	}
	before = iterationCount.Value()
	if err := New().Extend(s); err != nil {
		t.Fatal(err)
	}
	if !s.Complete() {
		t.Fatal("Extend left tasks unplaced")
	}
	if d, want := iterationCount.Value()-before, int64(pr.NumTasks()-seeded); d != want {
		t.Errorf("seeded Extend advanced the counter by %d, want %d", d, want)
	}
}

// TestTracerEventStream checks that an HDLTS run against a traced problem
// emits the generalised Table-I stream: per-iteration PV and selection
// events plus one commit per placement, and that the event trace agrees
// with the structured Step trace.
func TestTracerEventStream(t *testing.T) {
	col := obs.NewCollector()
	pr := workflows.PaperExample().WithTracer(obs.Named(col, "HDLTS"))

	s, steps, err := New().ScheduleTrace(pr)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 73 {
		t.Fatalf("makespan = %g, want 73", s.Makespan())
	}

	var iters, pvs, commits, dupCommits int
	maxFinish := 0.0
	for _, ev := range col.Events() {
		if ev.Alg != "HDLTS" {
			t.Fatalf("event not stamped with algorithm: %+v", ev)
		}
		switch ev.Type {
		case obs.EvIteration:
			iters++
			st := steps[ev.Iter-1]
			if int(st.Selected) != ev.Task || int(st.Proc) != ev.Proc {
				t.Errorf("iteration %d event (T%d, P%d) disagrees with Step (T%d, P%d)",
					ev.Iter, ev.Task+1, ev.Proc+1, st.Selected+1, st.Proc+1)
			}
		case obs.EvPV:
			pvs++
		case obs.EvCommit:
			commits++
			if ev.Dup {
				dupCommits++
			}
			if ev.Finish > maxFinish {
				maxFinish = ev.Finish
			}
		}
	}
	if iters != len(steps) {
		t.Errorf("iteration events = %d, want %d", iters, len(steps))
	}
	// One PV event per ready task per iteration.
	wantPVs := 0
	for _, st := range steps {
		wantPVs += len(st.Ready)
	}
	if pvs != wantPVs {
		t.Errorf("pv events = %d, want %d", pvs, wantPVs)
	}
	if want := pr.NumTasks() + s.NumDuplicates(); commits != want {
		t.Errorf("commit events = %d, want %d", commits, want)
	}
	if dupCommits != s.NumDuplicates() {
		t.Errorf("duplicate commits = %d, want %d", dupCommits, s.NumDuplicates())
	}
	if maxFinish != 73 {
		t.Errorf("max committed finish = %g, want the makespan 73", maxFinish)
	}
}

// TestUntracedRunEmitsNothing guards the zero-cost default: scheduling a
// problem without a tracer must not fail or require one.
func TestUntracedRunEmitsNothing(t *testing.T) {
	pr := workflows.PaperExample()
	if pr.Tracer().Enabled() {
		t.Fatal("fresh problem has an enabled tracer")
	}
	if _, err := New().Schedule(pr); err != nil {
		t.Fatal(err)
	}
}
