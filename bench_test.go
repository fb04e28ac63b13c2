// Benchmarks regenerating every table and figure of the paper's evaluation
// section, plus the ablation studies DESIGN.md §4 calls out.
//
// Figure benches run a miniature campaign (a few repetitions per x-point)
// per iteration and additionally report the headline comparison as custom
// metrics: HDLTS's mean SLR or efficiency and the gap to HEFT
// (negative gap = HDLTS better on SLR figures, positive = better on
// efficiency figures). Shapes at paper scale are produced by
// cmd/experiments and recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
package hdlts_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hdlts"
	"hdlts/internal/core"
	"hdlts/internal/dynamic"
	"hdlts/internal/experiments"
	"hdlts/internal/gen"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/stats"
	"hdlts/internal/workflows"
)

// benchReps keeps each figure-bench iteration around a hundred schedules:
// big enough to exercise the full pipeline, small enough to iterate.
const benchReps = 3

// benchFigure runs one experiment campaign per iteration and reports the
// final HDLTS and HEFT means as custom metrics.
func benchFigure(b *testing.B, name string) {
	b.Helper()
	e, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Reps: benchReps, Seed: 1, Algorithms: registry.All()}
	var tbl *experiments.Table
	solve0 := solverPhaseSeconds(cfg.Algorithms)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		tbl, err = experiments.Run(e, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	h := tbl.SeriesByName("HDLTS")
	f := tbl.SeriesByName("HEFT")
	b.ReportMetric(stats.Mean(h.Mean), "hdlts_"+metricUnit(e.Metric))
	b.ReportMetric(stats.Mean(h.Mean)-stats.Mean(f.Mean), "gap_vs_heft")
	// Split the iteration cost into scheduling proper vs. everything else
	// (graph generation, lower bounds, metric evaluation, table assembly),
	// read off the hdlts_solver_phase_seconds schedule-phase histograms.
	if el := b.Elapsed().Seconds(); el > 0 {
		share := (solverPhaseSeconds(cfg.Algorithms) - solve0) / el
		b.ReportMetric(share, "solve_share")
		b.ReportMetric(1-share, "evaluate_share")
	}
}

// solverPhaseSeconds sums the schedule-phase seconds the process-wide
// registry has accumulated for the given algorithms.
func solverPhaseSeconds(algs []sched.Algorithm) float64 {
	total := 0.0
	for _, a := range algs {
		total += obs.Default().Histogram(obs.MetricSolverPhase,
			"alg", a.Name(), "phase", "schedule").Sum()
	}
	return total
}

func metricUnit(metric string) string {
	if metric == experiments.MetricEfficiency {
		return "eff"
	}
	return "slr"
}

// BenchmarkTableI regenerates the worked-example trace (Table I): the full
// HDLTS run with per-step trace capture on the Fig. 1 instance.
func BenchmarkTableI(b *testing.B) {
	pr := workflows.PaperExample()
	h := core.New()
	for i := 0; i < b.N; i++ {
		s, steps, err := h.ScheduleTrace(pr)
		if err != nil {
			b.Fatal(err)
		}
		if s.Makespan() != 73 || len(steps) != 10 {
			b.Fatalf("trace drifted: makespan %g, %d steps", s.Makespan(), len(steps))
		}
	}
}

// BenchmarkGenerator exercises the Table II random-graph generator at a
// mid-grid parameter point (V=500).
func BenchmarkGenerator(b *testing.B) {
	p := gen.Params{V: 500, Alpha: 1.5, Density: 3, CCR: 3, Procs: 6, WDAG: 80, Beta: 1.2}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := gen.Random(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per evaluation figure.

func BenchmarkFig2(b *testing.B)   { benchFigure(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchFigure(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchFigure(b, "fig4") }
func BenchmarkFig6(b *testing.B)   { benchFigure(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchFigure(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchFigure(b, "fig8") }
func BenchmarkFig10a(b *testing.B) { benchFigure(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchFigure(b, "fig10b") }
func BenchmarkFig11(b *testing.B)  { benchFigure(b, "fig11") }
func BenchmarkFig13(b *testing.B)  { benchFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchFigure(b, "fig14") }

// benchProblems draws a fixed sample of mid-size problems for the
// per-algorithm and ablation benches.
func benchProblems(b *testing.B, n int) []*sched.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	prs := make([]*sched.Problem, n)
	for i := range prs {
		pr, err := gen.Random(gen.Params{V: 300, Alpha: 1.5, Density: 3, CCR: 3, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
		if err != nil {
			b.Fatal(err)
		}
		prs[i] = pr
	}
	return prs
}

// benchAlgorithm times one scheduler over a fixed problem sample and
// reports its mean SLR as a custom metric.
func benchAlgorithm(b *testing.B, alg sched.Algorithm) {
	b.Helper()
	prs := benchProblems(b, 8)
	var acc stats.Running
	solve0 := solverPhaseSeconds([]sched.Algorithm{alg})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := prs[i%len(prs)]
		s, err := alg.Schedule(pr)
		if err != nil {
			b.Fatal(err)
		}
		lb, err := pr.CPMinLowerBound()
		if err != nil {
			b.Fatal(err)
		}
		acc.Add(s.Makespan() / lb)
	}
	b.StopTimer()
	b.ReportMetric(acc.Mean(), "mean_slr")
	// Scheduling vs. lower-bound evaluation split for this iteration body.
	if el := b.Elapsed().Seconds(); el > 0 {
		share := (solverPhaseSeconds([]sched.Algorithm{alg}) - solve0) / el
		b.ReportMetric(share, "solve_share")
		b.ReportMetric(1-share, "evaluate_share")
	}
}

// Per-algorithm scheduling throughput on identical 300-task workloads.

func BenchmarkScheduleHDLTS(b *testing.B)  { benchAlgorithm(b, core.New()) }
func BenchmarkScheduleHEFT(b *testing.B)   { benchAlgorithm(b, registry.MustGet("heft")) }
func BenchmarkScheduleCPOP(b *testing.B)   { benchAlgorithm(b, registry.MustGet("cpop")) }
func BenchmarkSchedulePETS(b *testing.B)   { benchAlgorithm(b, registry.MustGet("pets")) }
func BenchmarkSchedulePEFT(b *testing.B)   { benchAlgorithm(b, registry.MustGet("peft")) }
func BenchmarkScheduleSDBATS(b *testing.B) { benchAlgorithm(b, registry.MustGet("sdbats")) }

// Ablation benches (DESIGN.md §4): identical workloads, one design knob
// toggled; mean SLR is the quality metric to compare across variants.

func BenchmarkAblationDuplicationOn(b *testing.B) {
	benchAlgorithm(b, core.New())
}

func BenchmarkAblationDuplicationOff(b *testing.B) {
	benchAlgorithm(b, core.NewWithOptions(core.Options{DisableDuplication: true}))
}

func BenchmarkAblationSigmaSample(b *testing.B) {
	benchAlgorithm(b, core.New())
}

func BenchmarkAblationSigmaPopulation(b *testing.B) {
	benchAlgorithm(b, core.NewWithOptions(core.Options{PopulationSigma: true}))
}

func BenchmarkAblationPlacementAvail(b *testing.B) {
	benchAlgorithm(b, core.New())
}

func BenchmarkAblationPlacementInsertion(b *testing.B) {
	benchAlgorithm(b, core.NewWithOptions(core.Options{Insertion: true}))
}

func BenchmarkAblationLookaheadOff(b *testing.B) {
	benchAlgorithm(b, core.New())
}

func BenchmarkAblationLookaheadOn(b *testing.B) {
	benchAlgorithm(b, core.NewWithOptions(core.Options{Lookahead: true}))
}

// BenchmarkAblationPaperModeHEFT times the avail-based HEFT variant used in
// paper-mode comparisons (fairness check for the published shape).
func BenchmarkAblationPaperModeHEFT(b *testing.B) {
	for _, alg := range registry.PaperMode() {
		if alg.Name() == "HEFT" {
			benchAlgorithm(b, alg)
			return
		}
	}
	b.Fatal("paper-mode HEFT not found")
}

// Extension benches: online execution under uncertainty (the paper's
// future-work scenario). Each iteration executes the full policy panel over
// one reality; mean actual SLR of the online HDLTS policy is reported as a
// custom metric.

func BenchmarkExtUncertain(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pr, err := gen.Random(gen.Params{V: 100, Alpha: 1, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
	if err != nil {
		b.Fatal(err)
	}
	var acc stats.Running
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums, err := dynamic.Compare(pr, dynamic.Uncertainty{ExecJitter: 0.3, CommJitter: 0.3}, nil, 1, rng)
		if err != nil {
			b.Fatal(err)
		}
		acc.Add(sums[0].SLR.Mean()) // sums[0] is HDLTS-online
	}
	b.StopTimer()
	b.ReportMetric(acc.Mean(), "hdlts_online_slr")
}

func BenchmarkExtFailure(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pr, err := gen.Random(gen.Params{V: 100, Alpha: 1, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
	if err != nil {
		b.Fatal(err)
	}
	fails := []dynamic.Failure{{Proc: 0, At: 150}, {Proc: 1, At: 300}}
	var acc stats.Running
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums, err := dynamic.Compare(pr, dynamic.Uncertainty{ExecJitter: 0.2, CommJitter: 0.2}, fails, 1, rng)
		if err != nil {
			b.Fatal(err)
		}
		acc.Add(sums[0].SLR.Mean())
	}
	b.StopTimer()
	b.ReportMetric(acc.Mean(), "hdlts_online_slr")
}

// BenchmarkExtraSchedulers times the reference schedulers beyond the
// paper's comparison set on the shared 300-task workload.
func BenchmarkExtraSchedulers(b *testing.B) {
	for _, name := range []string{"dheft", "dls", "dsc", "ga", "mct", "minmin", "maxmin"} {
		name := name
		b.Run(name, func(b *testing.B) { benchAlgorithm(b, registry.MustGet(name)) })
	}
}

// BenchmarkScaling tracks HDLTS runtime growth across the paper's task-size
// axis (Fig. 3's x-axis), one sub-bench per size.
func BenchmarkScaling(b *testing.B) {
	for _, v := range []int{100, 500, 1000, 5000, 10000} {
		v := v
		b.Run(itoa(v), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			pr, err := gen.Random(gen.Params{V: v, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
			if err != nil {
				b.Fatal(err)
			}
			h := core.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Schedule(pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Observability-overhead benches: HDLTS on a ~1000-task problem with no
// tracer attached vs. the explicit no-op tracer. The no-op path adds one
// Enabled() call per guarded site and allocates nothing, so the two benches
// should agree within noise (<5%; measured ~1% on the reference container —
// see docs/OBSERVABILITY.md).

func benchObsProblem(b *testing.B) *sched.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	pr, err := gen.Random(gen.Params{V: 1000, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

func BenchmarkObsOverheadUntraced(b *testing.B) {
	pr := benchObsProblem(b)
	h := core.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Schedule(pr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsOverheadNopTracer(b *testing.B) {
	pr := benchObsProblem(b).WithTracer(obs.Nop)
	h := core.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Schedule(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverheadCollector bounds the enabled-tracer cost: every
// event materialised into an in-memory collector (reset each iteration).
func BenchmarkObsOverheadCollector(b *testing.B) {
	col := obs.NewCollector()
	pr := benchObsProblem(b).WithTracer(col)
	h := core.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Reset()
		if _, err := h.Schedule(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// Span-overhead benches: the tracing guardrail. The serving path wraps
// every schedule in spans via obs.StartSpan; when the request's trace was
// not retained (no store in the context, or sampled out) StartSpan must
// be free — Disabled vs the plain baseline stays within noise (<5%),
// while Recorded bounds the cost of a fully-retained span tree. All three
// run the Fig. 1 problem so the schedule itself is cheap and the
// instrumentation delta is visible.

func BenchmarkSpanOverheadBaseline(b *testing.B) {
	pr := workflows.PaperExample()
	h := core.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Schedule(pr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpanOverheadDisabled(b *testing.B) {
	pr := workflows.PaperExample()
	h := core.New()
	ctx := context.Background() // no store: the nil-span no-op path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sctx, sp := obs.StartSpan(ctx, "schedule.run", "alg", "HDLTS")
		_, solve := obs.StartSpan(sctx, "schedule.solve")
		_, err := h.Schedule(pr)
		solve.Finish()
		sp.Finish()
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpanOverheadRecorded(b *testing.B) {
	pr := workflows.PaperExample()
	h := core.New()
	ts := obs.NewTraceStore(8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := "b-" + itoa(i+1)
		ts.Start(id)
		ctx := obs.WithTraceStore(obs.WithTraceID(context.Background(), id), ts)
		sctx, sp := obs.StartSpan(ctx, "schedule.run", "alg", "HDLTS")
		_, solve := obs.StartSpan(sctx, "schedule.solve")
		_, err := h.Schedule(pr)
		solve.Finish()
		sp.Finish()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCompaction measures the post-pass compaction's effect on
// HDLTS's avail-based schedules (insertion-based schedules are usually
// already tight): time includes the compaction, the custom metric is the
// resulting mean SLR for comparison with BenchmarkAblationPlacement*.
func BenchmarkAblationCompaction(b *testing.B) {
	prs := benchProblems(b, 8)
	h := core.New()
	var acc stats.Running
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := prs[i%len(prs)]
		s, err := h.Schedule(pr)
		if err != nil {
			b.Fatal(err)
		}
		c, err := s.Compact()
		if err != nil {
			b.Fatal(err)
		}
		lb, err := pr.CPMinLowerBound()
		if err != nil {
			b.Fatal(err)
		}
		acc.Add(c.Makespan() / lb)
	}
	b.StopTimer()
	b.ReportMetric(acc.Mean(), "mean_slr")
}

// Job-subsystem benches: the content-address hash (CanonicalProblemHash)
// that keys the result cache, and the manager's cache hit/miss submission
// paths over a memory-only store with a trivial run function.

func BenchmarkCanonicalHash(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	large, err := gen.Random(gen.Params{V: 1000, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2}, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		pr   *sched.Problem
	}{
		{"fig1", workflows.PaperExample()},
		{"v1000", large},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hdlts.CanonicalProblemHash("HDLTS", bc.pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchJobsManager opens a memory-only manager wired to run and retires
// it after the bench.
func benchJobsManager(b *testing.B, workers int, run jobs.RunFunc) *jobs.Manager {
	b.Helper()
	pool := jobs.NewPool(workers, 64, nil)
	m, err := jobs.Open(jobs.Config{
		Pool:       pool,
		GCInterval: time.Hour,
		Metrics:    obs.NewRegistry(),
		Run:        run,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		m.Close(context.Background())
		pool.Close()
	})
	return m
}

// BenchmarkJobCacheHit times a submission answered entirely from the
// result cache: hash lookup plus minting the pre-completed job record.
func BenchmarkJobCacheHit(b *testing.B) {
	m := benchJobsManager(b, 1, func(context.Context, string, json.RawMessage) (json.RawMessage, error) {
		return json.RawMessage(`{"makespan":73}`), nil
	})
	const hash = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	problem := json.RawMessage(`{"procs":3}`)
	j, err := m.Submit("HDLTS", hash, problem)
	if err != nil {
		b.Fatal(err)
	}
	for {
		got, err := m.Get(j.ID)
		if err != nil {
			b.Fatal(err)
		}
		if got.State == jobs.Done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit, err := m.Submit("HDLTS", hash, problem)
		if err != nil {
			b.Fatal(err)
		}
		if hit.State != jobs.Done || !hit.CacheHit {
			b.Fatalf("expected a cache hit, got state %s", hit.State)
		}
	}
}

// BenchmarkJobCacheMiss times the full miss path per fresh hash: enqueue,
// worker pickup, and run of a trivial function.
func BenchmarkJobCacheMiss(b *testing.B) {
	ran := make(chan struct{}, 1)
	m := benchJobsManager(b, 1, func(context.Context, string, json.RawMessage) (json.RawMessage, error) {
		ran <- struct{}{}
		return json.RawMessage(`{"makespan":73}`), nil
	})
	problem := json.RawMessage(`{"procs":3}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hash := fmt.Sprintf("%064x", i)
		if _, err := m.Submit("HDLTS", hash, problem); err != nil {
			b.Fatal(err)
		}
		<-ran
	}
}
