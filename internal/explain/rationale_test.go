package explain

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hdlts/internal/core"
	"hdlts/internal/gen"
	"hdlts/internal/sched"
)

// rationaleOptions is every HDLTS option set the rationale is checked
// under.
var rationaleOptions = []core.Options{
	{},
	{DisableDuplication: true},
	{Insertion: true},
	{PopulationSigma: true},
	{Lookahead: true},
}

// randomProblem draws one problem from the solver tests' distribution:
// 1–100 tasks, 2–10 processors, half of them with several entry and exit
// tasks.
func randomProblem(t *testing.T, rng *rand.Rand) *sched.Problem {
	t.Helper()
	pr, err := gen.Random(gen.Params{
		V:          1 + rng.Intn(100),
		Alpha:      []float64{0.5, 1.0, 1.5, 2.0, 2.5}[rng.Intn(5)],
		Density:    1 + rng.Intn(5),
		CCR:        float64(1 + rng.Intn(5)),
		Procs:      2 + 2*rng.Intn(5),
		WDAG:       50 + float64(10*rng.Intn(6)),
		Beta:       []float64{0.4, 0.8, 1.2, 1.6, 2.0}[rng.Intn(5)],
		MultiEntry: rng.Intn(2) == 0,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// explained solves pr with h and builds its report, returning the report
// and its rationales in iteration order.
func explained(t *testing.T, h *core.HDLTS, pr *sched.Problem) (*Report, []*Decision) {
	t.Helper()
	s, rec := solve(t, h, pr)
	rep, err := Schedule(s, h.Name(), rec)
	if err != nil {
		t.Fatal(err)
	}
	var decs []*Decision
	for i := range rep.Placements {
		if d := rep.Placements[i].Rationale; d != nil {
			decs = append(decs, d)
		}
	}
	sort.Slice(decs, func(i, k int) bool { return decs[i].Iter < decs[k].Iter })
	return rep, decs
}

// TestScheduleRationaleInvariants checks the report's rationale against
// the solver's own contracts on random problems: one decision per
// normalised task, attached to that task's placement, candidate vectors of
// platform width, the winning EFT the vector minimum (paper
// configuration), the committed PV the queue maximum, and the ITQ snapshot
// sorted with the winner present.
func TestScheduleRationaleInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		pr := randomProblem(t, rng)
		rep, decs := explained(t, core.New(), pr)
		n, np := rep.Tasks, rep.Procs
		if len(decs) != n {
			t.Fatalf("problem %d: %d decisions for %d tasks", i, len(decs), n)
		}
		for k, d := range decs {
			if d.Iter != k+1 {
				t.Fatalf("problem %d: decision %d has iter %d", i, k, d.Iter)
			}
			if len(d.EFT) != np {
				t.Fatalf("problem %d iter %d: EFT width %d, want %d", i, d.Iter, len(d.EFT), np)
			}
			winning := d.EFT[d.Proc]
			for q, eft := range d.EFT {
				if eft < winning {
					t.Fatalf("problem %d iter %d: P%d EFT %g beats committed P%d EFT %g",
						i, d.Iter, q+1, eft, int(d.Proc)+1, winning)
				}
			}
			if d.EST > winning {
				t.Fatalf("problem %d iter %d: EST %g > EFT %g", i, d.Iter, d.EST, winning)
			}
			if d.Slotted {
				t.Fatalf("problem %d iter %d: slotted placement under avail-based policy", i, d.Iter)
			}
			if d.ITQWidth < len(d.ITQ) || len(d.ITQ) == 0 {
				t.Fatalf("problem %d iter %d: ITQ snapshot %d wider than queue %d",
					i, d.Iter, len(d.ITQ), d.ITQWidth)
			}
			found := false
			for k2, it := range d.ITQ {
				if k2 > 0 && d.ITQ[k2-1].Task >= it.Task {
					t.Fatalf("problem %d iter %d: ITQ not sorted by task", i, d.Iter)
				}
				if it.PV > d.PV {
					t.Fatalf("problem %d iter %d: queued task %d PV %g exceeds committed PV %g",
						i, d.Iter, it.Task, it.PV, d.PV)
				}
				if it.Task == d.Task {
					found = true
					if it.PV != d.PV {
						t.Fatalf("problem %d iter %d: committed PV mismatch", i, d.Iter)
					}
				}
			}
			if !found && d.ITQWidth <= itqCap {
				t.Fatalf("problem %d iter %d: committed task %d missing from full ITQ snapshot",
					i, d.Iter, d.Task)
			}
			pl := rep.Placements[d.Task]
			if pl.Rationale != d || pl.Proc != int(d.Proc) {
				t.Fatalf("problem %d iter %d: schedule places task %d elsewhere", i, d.Iter, d.Task)
			}
		}
	}
}

// TestScheduleRationaleMatchesTrace cross-checks the rationale against the
// Table-I trace under every option set: same selection sequence, same
// processors, same duplication decisions, same queue, and the same penalty
// values and EFT vectors bit for bit. internal/core holds that trace to
// the paper's literal loop (TestQuickIncrementalMatchesFullRecompute).
func TestScheduleRationaleMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		pr := randomProblem(t, rng)
		for _, o := range rationaleOptions {
			h := core.NewWithOptions(o)
			_, decs := explained(t, h, pr)
			_, steps, err := h.ScheduleTrace(pr)
			if err != nil {
				t.Fatal(err)
			}
			if len(decs) != len(steps) {
				t.Fatalf("problem %d opts %+v: %d decisions vs %d trace steps", i, o, len(decs), len(steps))
			}
			for k, st := range steps {
				d := decs[k]
				if d.Task != st.Selected || d.Proc != st.Proc || d.Duplicated != st.Duplicated {
					t.Fatalf("problem %d opts %+v iter %d: decision (T%d, P%d, dup %v) vs trace (T%d, P%d, dup %v)",
						i, o, k+1, d.Task, d.Proc, d.Duplicated, st.Selected, st.Proc, st.Duplicated)
				}
				if d.ITQWidth != len(st.Ready) {
					t.Fatalf("problem %d opts %+v iter %d: ITQ width %d vs trace %d",
						i, o, k+1, d.ITQWidth, len(st.Ready))
				}
				sel := slices.Index(st.Ready, st.Selected)
				if math.Float64bits(d.PV) != math.Float64bits(st.PV[sel]) {
					t.Fatalf("problem %d opts %+v iter %d: PV %v vs trace %v", i, o, k+1, d.PV, st.PV[sel])
				}
				for p := range st.EFT {
					if math.Float64bits(d.EFT[p]) != math.Float64bits(st.EFT[p]) {
						t.Fatalf("problem %d opts %+v iter %d: EFT[%d] %v vs trace %v", i, o, k+1, p, d.EFT[p], st.EFT[p])
					}
				}
				if d.ITQWidth <= itqCap {
					for j, it := range d.ITQ {
						if it.Task != st.Ready[j] || math.Float64bits(it.PV) != math.Float64bits(st.PV[j]) {
							t.Fatalf("problem %d opts %+v iter %d: ITQ[%d] %+v vs trace (T%d, %v)",
								i, o, k+1, j, it, st.Ready[j], st.PV[j])
						}
					}
				}
			}
		}
	}
}

// TestScheduleRationaleDeterministic pins the byte-determinism the CI
// smoke step asserts end to end: the rationale of two solves of the same
// problem marshals to identical JSON.
func TestScheduleRationaleDeterministic(t *testing.T) {
	pr, err := gen.Random(gen.Params{
		V: 400, Alpha: 1.5, Density: 3, CCR: 2, Procs: 6, WDAG: 80, Beta: 1.2,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	_, d1 := explained(t, core.New(), pr)
	_, d2 := explained(t, core.New(), pr)
	b1, err := json.Marshal(d1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(d2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("rationale differs across identical solves")
	}
}
