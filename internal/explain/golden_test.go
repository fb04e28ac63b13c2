package explain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hdlts/internal/core"
	"hdlts/internal/dag"
	"hdlts/internal/gen"
	"hdlts/internal/heuristics"
	"hdlts/internal/obs"
	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

// solve schedules pr with alg, an obs.RecordKeeper attached as the
// callers of Schedule attach it, and returns the schedule and the kept
// decision record (nil when alg emits none).
func solve(t *testing.T, alg sched.Algorithm, pr *sched.Problem) (*sched.Schedule, *obs.DecisionRecord) {
	t.Helper()
	keep := new(obs.RecordKeeper)
	s, err := alg.Schedule(pr.WithTracer(keep))
	if err != nil {
		t.Fatal(err)
	}
	return s, keep.Record()
}

// explainBytes solves pr with alg and marshals the report as the
// ?explain=1 body's explain field.
func explainBytes(t *testing.T, alg sched.Algorithm, pr *sched.Problem) []byte {
	t.Helper()
	s, rec := solve(t, alg, pr)
	rep, err := Schedule(s, alg.Name(), rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// forkJoin is an entry task fanning out to width parallel tasks that join
// in one exit task, seeded costs on procs processors: its ITQ is width
// wide right after the entry commits.
func forkJoin(t *testing.T, width, procs int, seed int64) *sched.Problem {
	t.Helper()
	g := dag.New(width + 2)
	entry := g.AddTask("fork")
	var mids []dag.TaskID
	for i := 0; i < width; i++ {
		mids = append(mids, g.AddTask(fmt.Sprintf("b%d", i)))
	}
	exit := g.AddTask("join")
	for _, m := range mids {
		g.MustAddEdge(entry, m, 0)
		g.MustAddEdge(m, exit, 0)
	}
	pr, err := gen.AssignCosts(g, gen.CostParams{Procs: procs, WDAG: 40, Beta: 1.5, CCR: 1}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// goldenProblems is Fig. 1, three seeded random problems (one with
// several entry and exit tasks) and a 40-wide fork-join whose ITQ
// overflows the 32-entry rationale cap.
func goldenProblems(t *testing.T) map[string]*sched.Problem {
	t.Helper()
	out := map[string]*sched.Problem{
		"fig1":       workflows.PaperExample(),
		"forkjoin40": forkJoin(t, 40, 4, 17),
	}
	for i, p := range []gen.Params{
		{V: 20, Alpha: 1, Density: 3, CCR: 1, Procs: 3, WDAG: 50, Beta: 1},
		{V: 30, Alpha: 0.5, Density: 2, CCR: 5, Procs: 5, WDAG: 50, Beta: 1.5, MultiEntry: true},
		{V: 36, Alpha: 2, Density: 4, CCR: 0.1, Procs: 4, WDAG: 50, Beta: 0.5},
	} {
		pr, err := gen.Random(p, rand.New(rand.NewSource(int64(31+i))))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("gen%d", i+1)] = pr
	}
	return out
}

// TestScheduleGolden holds explain reports byte for byte to the fixtures
// in testdata: per-task rationale of the paper's HDLTS, its slotted
// insertion variant and its no-duplication variant, and HEFT's
// placements-only report.
func TestScheduleGolden(t *testing.T) {
	algs := map[string]sched.Algorithm{
		"hdlts":       core.New(),
		"hdlts-ins":   core.NewWithOptions(core.Options{Insertion: true}),
		"hdlts-nodup": core.NewWithOptions(core.Options{DisableDuplication: true}),
		"heft":        heuristics.NewHEFT(),
	}
	for pname, pr := range goldenProblems(t) {
		for aname, alg := range algs {
			path := filepath.Join("testdata", pname+"_"+aname+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := explainBytes(t, alg, pr); !bytes.Equal(got, want) {
				t.Errorf("%s: report differs from the fixture\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		}
	}
}
