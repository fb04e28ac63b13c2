package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hdlts/internal/gen"
)

// TestScheduleExplainedInvariants checks the captured rationale against the
// solver's own contracts on random problems: one decision per normalised
// task, candidate vectors of platform width, the winning EFT the vector
// minimum (paper configuration), the committed PV the queue maximum, and
// the ITQ snapshot sorted with the winner present.
func TestScheduleExplainedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		pr, err := randomProblem(rng)
		if err != nil {
			t.Fatal(err)
		}
		h := New()
		s, decs, err := h.ScheduleExplained(pr)
		if err != nil {
			t.Fatal(err)
		}
		npr := pr.Normalize()
		n, np := npr.NumTasks(), npr.NumProcs()
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
			if found == false && d.ITQWidth <= itqCaptureCap {
				t.Fatalf("problem %d iter %d: committed task %d missing from full ITQ snapshot",
					i, d.Iter, d.Task)
			}
			pl, ok := s.PlacementOf(d.Task)
			if !ok || pl.Proc != d.Proc {
				t.Fatalf("problem %d iter %d: schedule places task %d elsewhere", i, d.Iter, d.Task)
			}
		}
	}
}

// TestScheduleExplainedMatchesTrace cross-checks the capture against the
// reference oracle's Table-I trace under every option set: same selection
// sequence, same processors, same duplication decisions, same queue, and
// the same penalty values and EFT vectors bit for bit.
func TestScheduleExplainedMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		pr, err := randomProblem(rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range optionSets {
			h := NewWithOptions(o)
			_, decs, err := h.ScheduleExplained(pr)
			if err != nil {
				t.Fatal(err)
			}
			_, steps, err := h.runReference(pr, false)
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
				if d.ITQWidth <= itqCaptureCap {
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

// TestScheduleExplainedDeterministic pins the byte-determinism the CI smoke
// step asserts end-to-end: two explain solves of the same problem must
// marshal to identical JSON.
func TestScheduleExplainedDeterministic(t *testing.T) {
	pr, err := gen.Random(gen.Params{
		V: 400, Alpha: 1.5, Density: 3, CCR: 2, Procs: 6, WDAG: 80, Beta: 1.2,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	_, d1, err := h.ScheduleExplained(pr)
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := h.ScheduleExplained(pr)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(d1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(d2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("explain decisions differ across identical solves")
	}
}
