package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hdlts/internal/dag"
	"hdlts/internal/gen"
	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

// TestQuickIncrementalMatchesFullRecompute differentially tests the
// indexed core's incremental EFT maintenance against the paper's literal
// full-recompute loop (the test-only reference oracle): for arbitrary
// problems and every option combination, both must produce the same
// placements, the same makespan, and Table-I traces that are
// reflect.DeepEqual with every float bit-identical.
func TestQuickIncrementalMatchesFullRecompute(t *testing.T) {
	opts := append([]Options{{PopulationSigma: true, Insertion: true}}, optionSets...)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pr, err := randomProblem(rng)
		if err != nil {
			return false
		}
		for _, o := range opts {
			h := NewWithOptions(o)
			si, stepsI, err := h.ScheduleTrace(pr)
			if err != nil {
				t.Logf("indexed: %v", err)
				return false
			}
			sf, stepsF, err := h.runReference(pr, true)
			if err != nil {
				t.Logf("reference: %v", err)
				return false
			}
			if si.Makespan() != sf.Makespan() {
				t.Logf("opts %+v: makespan %g vs %g", o, si.Makespan(), sf.Makespan())
				return false
			}
			if msg := stepsMismatch(stepsI, stepsF); msg != "" {
				t.Logf("opts %+v: %s", o, msg)
				return false
			}
			for task := 0; task < si.Problem().NumTasks(); task++ {
				pi, _ := si.PlacementOf(dag.TaskID(task))
				pf, _ := sf.PlacementOf(dag.TaskID(task))
				if pi != pf {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalTableI: the indexed core must reproduce the reference
// oracle's full-recompute trace step for step — on the paper's Fig. 1
// example (the Table I rows themselves) and on a 300-task problem.
func TestIncrementalTableI(t *testing.T) {
	big, err := gen.Random(gen.Params{V: 300, Alpha: 1.5, Density: 3, CCR: 3, Procs: 8, WDAG: 80, Beta: 1.2}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for name, pr := range map[string]*sched.Problem{"fig1": workflows.PaperExample(), "v300": big} {
		inc, stepsI, err := New().ScheduleTrace(pr)
		if err != nil {
			t.Fatal(err)
		}
		full, stepsF, err := New().runReference(pr, true)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Makespan() != full.Makespan() {
			t.Fatalf("%s: makespans diverge: %g vs %g", name, inc.Makespan(), full.Makespan())
		}
		if msg := stepsMismatch(stepsI, stepsF); msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
	}
}

// BenchmarkIncrementalVsFull quantifies the speedup of the indexed core's
// incremental path over the oracle's full recompute on a 300-task /
// 8-processor workload.
func BenchmarkIncrementalVsFull(b *testing.B) {
	pr, err := gen.Random(gen.Params{V: 300, Alpha: 1.5, Density: 3, CCR: 3, Procs: 8, WDAG: 80, Beta: 1.2}, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		h := New()
		for i := 0; i < b.N; i++ {
			if _, err := h.Schedule(pr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		h := New()
		for i := 0; i < b.N; i++ {
			if _, _, err := h.runReference(pr, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}
