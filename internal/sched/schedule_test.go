package sched

import (
	"strings"
	"testing"

	"hdlts/internal/dag"
	"hdlts/internal/platform"
)

// chainProblem builds a 3-task chain A -> B -> C on two processors with
// simple costs (A: 2/4, B: 3/1, C: 2/2) and edge data 5 each.
func chainProblem(t *testing.T) *Problem {
	t.Helper()
	g := dag.New(3)
	a := g.AddTask("A")
	b := g.AddTask("B")
	c := g.AddTask("C")
	g.MustAddEdge(a, b, 5)
	g.MustAddEdge(b, c, 5)
	w := platform.MustCostsFromRows([][]float64{{2, 4}, {3, 1}, {2, 2}})
	return MustProblem(g, platform.MustUniform(2), w)
}

func TestNewProblemValidation(t *testing.T) {
	g := dag.New(1)
	g.AddTask("a")
	pl := platform.MustUniform(2)
	w := platform.MustCostsFromRows([][]float64{{1, 1}})

	if _, err := NewProblem(nil, pl, w); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewProblem(g, nil, w); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := NewProblem(g, pl, nil); err == nil {
		t.Error("nil costs accepted")
	}
	badW := platform.MustCostsFromRows([][]float64{{1, 1}, {2, 2}})
	if _, err := NewProblem(g, pl, badW); err == nil {
		t.Error("mismatched cost rows accepted")
	}
	badP := platform.MustUniform(3)
	if _, err := NewProblem(g, badP, w); err == nil {
		t.Error("mismatched processor count accepted")
	}
	if _, err := NewProblem(g, pl, w); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

func TestPlaceAndQueries(t *testing.T) {
	pr := chainProblem(t)
	s := NewSchedule(pr)
	if s.Complete() || s.NumPlaced() != 0 {
		t.Fatal("fresh schedule should be empty")
	}
	if err := s.Place(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(0, 1, 0); err == nil {
		t.Fatal("double placement accepted")
	}
	pl, ok := s.PlacementOf(0)
	if !ok || pl.Proc != 0 || pl.Start != 0 || pl.Finish != 2 {
		t.Fatalf("placement = %+v", pl)
	}
	if s.AFT(0) != 2 {
		t.Fatalf("AFT = %g, want 2", s.AFT(0))
	}
	if s.Avail(0) != 2 || s.Avail(1) != 0 {
		t.Fatalf("avail = %g/%g", s.Avail(0), s.Avail(1))
	}
	if !s.HasCopyOn(0, 0) || s.HasCopyOn(0, 1) {
		t.Fatal("HasCopyOn wrong")
	}
}

func TestAFTPanicsOnUnscheduled(t *testing.T) {
	pr := chainProblem(t)
	s := NewSchedule(pr)
	defer func() {
		if recover() == nil {
			t.Fatal("AFT on unscheduled task did not panic")
		}
	}()
	s.AFT(2)
}

func TestDuplicates(t *testing.T) {
	pr := chainProblem(t)
	s := NewSchedule(pr)
	if err := s.Place(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceDuplicate(0, 0, 10); err == nil {
		t.Fatal("duplicate on the same processor as the primary accepted")
	}
	if err := s.PlaceDuplicate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceDuplicate(0, 1, 20); err == nil {
		t.Fatal("second duplicate on one processor accepted")
	}
	if got := s.NumDuplicates(); got != 1 {
		t.Fatalf("NumDuplicates = %d, want 1", got)
	}
	copies := s.Copies(0)
	if len(copies) != 2 || copies[0].Duplicate || !copies[1].Duplicate {
		t.Fatalf("Copies = %+v", copies)
	}
	// Makespan counts only primary copies.
	if mk := s.Makespan(); mk != 2 {
		t.Fatalf("makespan = %g, want 2 (duplicate at [0,4) must not count)", mk)
	}
}

func TestMakespanTracksLatestPrimary(t *testing.T) {
	pr := chainProblem(t)
	s := NewSchedule(pr)
	if s.Makespan() != 0 {
		t.Fatal("empty makespan != 0")
	}
	_ = s.Place(0, 0, 0) // [0,2)
	_ = s.Place(1, 1, 7) // [7,8)
	_ = s.Place(2, 1, 8) // [8,10)
	if mk := s.Makespan(); mk != 10 {
		t.Fatalf("makespan = %g, want 10", mk)
	}
	if !s.Complete() {
		t.Fatal("schedule should be complete")
	}
}

func TestArrivalFromCopies(t *testing.T) {
	pr := chainProblem(t)
	s := NewSchedule(pr)
	_ = s.Place(0, 0, 0)          // A on P1, finishes 2
	_ = s.PlaceDuplicate(0, 1, 1) // dup on P2, finishes 1+4=5

	// Arrival of A's output (data 5, uniform bandwidth) on P1: local 2.
	if got := s.arrivalFromCopies(0, 5, 0); got != 2 {
		t.Errorf("arrival on P1 = %g, want 2", got)
	}
	// On P2: min(2+5 from P1, 5 local from dup) = 5.
	if got := s.arrivalFromCopies(0, 5, 1); got != 5 {
		t.Errorf("arrival on P2 = %g, want 5", got)
	}
}

func TestNormalizeProblem(t *testing.T) {
	g := dag.New(2)
	g.AddTask("a")
	g.AddTask("b") // two isolated tasks: 2 entries, 2 exits
	w := platform.MustCostsFromRows([][]float64{{1, 2}, {3, 4}})
	pr := MustProblem(g, platform.MustUniform(2), w)
	n := pr.Normalize()
	if n == pr {
		t.Fatal("normalisation did not copy")
	}
	if n.NumTasks() != 4 {
		t.Fatalf("normalised tasks = %d, want 4", n.NumTasks())
	}
	if n.W.NumTasks() != 4 {
		t.Fatalf("cost rows = %d, want 4", n.W.NumTasks())
	}
	if n.Exec(dag.TaskID(2), 0) != 0 || n.Exec(dag.TaskID(3), 1) != 0 {
		t.Fatal("pseudo tasks should cost zero")
	}
	// Already-normalised problems pass through.
	if n2 := n.Normalize(); n2 != n {
		t.Fatal("double normalisation copied again")
	}
}

func TestSeqTimeOnBestProc(t *testing.T) {
	pr := chainProblem(t)
	// P1 total: 2+3+2 = 7; P2 total: 4+1+2 = 7 -> min 7.
	if got := pr.SeqTimeOnBestProc(); got != 7 {
		t.Fatalf("SeqTimeOnBestProc = %g, want 7", got)
	}
}

func TestCPMinLowerBound(t *testing.T) {
	pr := chainProblem(t)
	// Chain: min costs 2 + 1 + 2 = 5.
	lb, err := pr.CPMinLowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if lb != 5 {
		t.Fatalf("lower bound = %g, want 5", lb)
	}
}

func TestMeanComm(t *testing.T) {
	pr := chainProblem(t)
	if got := pr.MeanComm(5); got != 5 {
		t.Fatalf("uniform MeanComm = %g, want 5", got)
	}
	if got := pr.MeanComm(0); got != 0 {
		t.Fatalf("MeanComm(0) = %g, want 0", got)
	}
	// Single-processor platforms never communicate.
	g := dag.New(1)
	g.AddTask("a")
	pr1 := MustProblem(g, platform.MustUniform(1), platform.MustCostsFromRows([][]float64{{1}}))
	if got := pr1.MeanComm(9); got != 0 {
		t.Fatalf("single-proc MeanComm = %g, want 0", got)
	}
}

func TestSummary(t *testing.T) {
	pr := chainProblem(t)
	s := NewSchedule(pr)
	_ = s.Place(0, 0, 0)
	if sum := s.Summary(); !strings.Contains(sum, "1/3 tasks") {
		t.Errorf("Summary = %q", sum)
	}
}

// TestSeedFixAndHold: a fixed task counts as placed, finishing when given,
// on no timeline; a hold reserves [0, until) and never falls.
func TestSeedFixAndHold(t *testing.T) {
	s := NewSchedule(chainProblem(t))
	s.Fix(0, 1, 3)
	s.Hold(0, 2)
	s.Hold(0, 1)
	if !s.Placed(0) || s.NumPlaced() != 1 || s.AFT(0) != 3 {
		t.Fatalf("fixed A: placed %v, %d placed, AFT %g", s.Placed(0), s.NumPlaced(), s.AFT(0))
	}
	if a0, a1 := s.Avail(0), s.Avail(1); a0 != 2 || a1 != 0 {
		t.Fatalf("Avail = %g, %g; want the hold 2, and 0 beside the fixed A", a0, a1)
	}
	if err := s.Place(1, 0, 1); err == nil {
		t.Fatal("B placed inside the hold")
	}
	if err := s.Place(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if slots := s.ProcSlots(0); len(slots) != 2 || slots[0].Task != dag.None || slots[1].Task != 1 {
		t.Fatalf("P0 slots = %+v, want the hold then B", slots)
	}
}
