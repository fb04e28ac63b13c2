package hdlts_test

import (
	"fmt"
	"math/rand"
	"os"

	"hdlts"
)

// The godoc examples below double as executable documentation: each runs in
// the test suite and its Output comment is verified.

// ExampleNewHDLTS schedules the paper's worked example and reproduces the
// published makespan of 73.
func ExampleNewHDLTS() {
	pr := hdlts.PaperExample()
	s, err := hdlts.NewHDLTS().Schedule(pr)
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Makespan())
	// Output: 73
}

// ExampleNewHDLTSWithOptions runs the solve API's ablation knobs: turning
// entry-task duplication off costs the Fig. 1 instance five time units,
// while the σ-definition and CPU-selection variants happen to agree with
// the canonical configuration on this graph. Every variant is
// bit-reproducible — the options select a deterministic algorithm, never a
// heuristic budget.
func ExampleNewHDLTSWithOptions() {
	pr := hdlts.PaperExample()
	for _, o := range []hdlts.HDLTSOptions{
		{},                         // the paper's configuration
		{DisableDuplication: true}, // ablation: no entry-task duplication
		{Insertion: true},          // insertion-based CPU selection
		{PopulationSigma: true},    // PV via population σ (n denominator)
	} {
		alg := hdlts.NewHDLTSWithOptions(o)
		s, err := alg.Schedule(pr)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s %g\n", alg.Name(), s.Makespan())
	}
	// Output:
	// HDLTS 73
	// HDLTS-nodup 78
	// HDLTS-ins 73
	// HDLTS-popσ 73
}

// ExampleScheduleWithTrace replays Table I's first two decisions.
func ExampleScheduleWithTrace() {
	_, steps, err := hdlts.ScheduleWithTrace(hdlts.PaperExample())
	if err != nil {
		panic(err)
	}
	for _, st := range steps[:2] {
		fmt.Printf("T%d -> P%d (EFT %g)\n", st.Selected+1, st.Proc+1, st.EFT[st.Proc])
	}
	// Output:
	// T1 -> P3 (EFT 9)
	// T6 -> P3 (EFT 18)
}

// ExampleAlgorithms compares every algorithm of the paper on one instance.
func ExampleAlgorithms() {
	pr := hdlts.PaperExample()
	for _, alg := range hdlts.Algorithms() {
		s, err := alg.Schedule(pr)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s %g\n", alg.Name(), s.Makespan())
	}
	// Output:
	// HDLTS 73
	// HEFT 80
	// PETS 76
	// CPOP 86
	// PEFT 85
	// SDBATS 74
}

// ExampleNewProblem builds a problem by hand and evaluates the metrics.
func ExampleNewProblem() {
	g := hdlts.NewGraph(2)
	a := g.AddTask("produce")
	b := g.AddTask("consume")
	if err := g.AddEdge(a, b, 6); err != nil {
		panic(err)
	}
	w, _ := hdlts.CostsFromRows([][]float64{{4, 8}, {5, 2}})
	pl, _ := hdlts.NewUniformPlatform(2)
	pr, err := hdlts.NewProblem(g, pl, w)
	if err != nil {
		panic(err)
	}
	s, _ := hdlts.NewHDLTS().Schedule(pr)
	slr, _ := hdlts.SLR(pr, s.Makespan())
	fmt.Printf("makespan %g, SLR %.2f\n", s.Makespan(), slr)
	// Output: makespan 9, SLR 1.50
}

// ExampleRandomProblem generates a Table II synthetic workload.
func ExampleRandomProblem() {
	rng := rand.New(rand.NewSource(1))
	pr, err := hdlts.RandomProblem(hdlts.GenParams{
		V: 50, Alpha: 1.0, Density: 3, CCR: 2, Procs: 4, WDAG: 80, Beta: 1.2,
	}, rng)
	if err != nil {
		panic(err)
	}
	fmt.Println(pr.NumTasks(), pr.NumProcs())
	// Output: 50 4
}

// ExampleFFTGraph shows the workflow structures and their published sizes.
func ExampleFFTGraph() {
	fft, _ := hdlts.FFTGraph(32)
	mon, _ := hdlts.MontageGraph(50)
	gauss, _ := hdlts.GaussianGraph(5)
	fmt.Println(fft.NumTasks(), mon.NumTasks(), hdlts.MolDynGraph().NumTasks(), gauss.NumTasks())
	// Output: 223 50 41 14
}

// ExampleWriteGanttSVG renders a schedule to SVG (here just measuring it).
func ExampleWriteGanttSVG() {
	s, _ := hdlts.NewHDLTS().Schedule(hdlts.PaperExample())
	f, err := os.CreateTemp("", "gantt-*.svg")
	if err != nil {
		panic(err)
	}
	defer os.Remove(f.Name())
	if err := hdlts.WriteGanttSVG(f, s, "HDLTS on Fig. 1"); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	info, _ := os.Stat(f.Name())
	fmt.Println(info.Size() > 1000)
	// Output: true
}

// ExampleCompareUnderUncertainty runs the online-execution extension.
func ExampleCompareUnderUncertainty() {
	rng := rand.New(rand.NewSource(1))
	pr := hdlts.PaperExample()
	sums, err := hdlts.CompareUnderUncertainty(pr,
		hdlts.Uncertainty{ExecJitter: 0.2, CommJitter: 0.2}, nil, 10, rng)
	if err != nil {
		panic(err)
	}
	for _, s := range sums {
		fmt.Println(s.Policy, s.Makespan.N())
	}
	// Output:
	// HDLTS-online 10
	// HDLTS-static 10
	// HEFT-static 10
	// HEFT-order 10
}
