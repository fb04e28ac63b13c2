// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives one workload in a closed loop with a single client, checks
// every answer against an oracle computed outside the timed path, and
// prints the metrics as one JSON object on the last line of its output:
//
//	bash perfbench/run.sh --workload schedule-v1k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1 a
// traced run times every layer from outside and the object holds the
// per-layer metrics. See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark scenario. run calls generate once,
// prime once, setup once per set-up repetition (tearing the previous one
// down first; the last one serves the measured phase), then op in a closed
// loop. In a traced run, replay follows every traced op.
type workload interface {
	// generate builds the seeded inputs and their oracle answers. Untimed.
	generate(seed int64, d time.Duration) error
	// prime fills the durable store in dir before set-up. Untimed.
	prime(dir string) error
	// setup starts the system on a copy of the primed store in dir and
	// warms it up. setup_s times it.
	setup(dir string, rep int) error
	// op runs operation i; tr is nil outside the traced phase.
	op(i int, tr *tracer) opResult
	// replay sends op i's input through the public layer functions.
	replay(i int, tr *tracer) error
	// beforeTraced snapshots what layers later reports deltas of.
	beforeTraced() error
	// layers returns the per-layer figures spans cannot give: counters the
	// program publishes, record timestamps, and set-up costs such as WAL
	// replay of the primed store.
	layers(tr *tracer, primed string) (map[string]float64, error)
	// teardown stops what setup started.
	teardown() error
	// setupReps is how many set-up repetitions setup_s takes the median of.
	setupReps() int
	// stride is the op count the loop keeps whole: 3 for the jobs mix.
	stride() int
	// opsPerSecond is the workload's nominal rate on the reference host;
	// the live heap is sampled after half the ops a run would do at it.
	opsPerSecond() float64
	// service is the in-process server, nil for the library workload.
	service() *service
}

var workloads = map[string]func() workload{
	"schedule-v1k":    func() workload { return &scheduleBench{} },
	"jobs-v100-mixed": func() workload { return &jobsBench{} },
	"workflow-v40":    func() workload { return &workflowBench{} },
	"solve-v100k":     func() workload { return &solveBench{} },
}

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\"")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*secs) * time.Second
	if *name == "all" {
		if err := runAll(*seed, d, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", *name, workloadNames())
		os.Exit(2)
	}
	res, err := run(*name, mk(), *seed, d, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runAll runs every workload in turn in this process and prints one table
// plus a combined result whose metric names carry the workload as prefix.
func runAll(seed int64, d time.Duration, trace bool) error {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range workloadNames() {
		res, err := run(n, workloads[n](), seed, d, trace)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		printTable(n, res)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[n+"."+k] = v
		}
		runtime.GC()
	}
	printResult(all)
	return nil
}

func printTable(name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("\n%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Printf("  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func printResult(res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes one workload: inputs, priming, the set-up repetitions, and
// the measured phase, or, traced, an untraced and a traced half.
func run(name string, w workload, seed int64, d time.Duration, trace bool) (res *result, err error) {
	t0 := time.Now()
	if err := w.generate(seed, d); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	primed := filepath.Join(work, "primed")
	if err := os.MkdirAll(primed, 0o755); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := w.prime(primed); err != nil {
		return nil, fmt.Errorf("prime: %w", err)
	}
	t2 := time.Now()
	defer func() {
		if terr := w.teardown(); terr != nil && err == nil {
			res, err = nil, fmt.Errorf("teardown: %w", terr)
		}
	}()
	reps := w.setupReps()
	if trace {
		reps = 1
	}
	setups, err := setUp(w, work, primed, reps)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: generate %.2fs, prime %.2fs, set-up %.3fs, repetitions %.3f, live heap %.1f MiB\n",
		name, seed, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds(), seconds(setups), liveHeapMiB())
	if trace {
		return runTraced(name, w, seed, d, primed)
	}
	next := 0
	heapAt := int(w.opsPerSecond() * d.Seconds() / 2)
	p := runPhase(d, w.stride(), heapAt, &next, func(i int) opResult { return w.op(i, nil) })
	if err := report(name, p); err != nil {
		return nil, err
	}
	return &result{
		Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: endToEnd(setups, p),
	}, nil
}

// setUp times reps set-ups, each on a fresh copy of the primed store and
// after a collection, tearing down the previous one first.
func setUp(w workload, work, primed string, reps int) ([]time.Duration, error) {
	var setups []time.Duration
	for r := 0; r < reps; r++ {
		if r > 0 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		dir := filepath.Join(work, fmt.Sprintf("rep%d", r))
		if err := copyDir(primed, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(dir, r); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
	}
	return setups, nil
}

// report prints a phase's first failure and rejects a phase with no
// completed op.
func report(name string, p *phase) error {
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", name, p.failed, p.attempted, p.firstErr)
	}
	if p.ops() == 0 {
		return errors.New("no op completed")
	}
	return nil
}

// runTraced runs half of d untraced, then half traced with every op
// replayed through the layer functions, and reports the per-layer metrics.
func runTraced(name string, w workload, seed int64, d time.Duration, primed string) (*result, error) {
	next := 0
	untraced := runPhase(d/2, w.stride(), 0, &next, func(i int) opResult { return w.op(i, nil) })
	tr := newTracer()
	if err := w.beforeTraced(); err != nil {
		return nil, err
	}
	if s := w.service(); s != nil {
		s.handler.tr.Store(tr)
	}
	var replayErr error
	traced := runPhase(d/2, w.stride(), 0, &next, func(i int) opResult {
		h := tr.startOp(i)
		r := w.op(i, tr)
		tr.end(h)
		if r.err == nil && replayErr == nil {
			h := tr.begin("replay")
			replayErr = w.replay(i, tr)
			tr.end(h)
		}
		return r
	})
	if s := w.service(); s != nil {
		s.handler.tr.Store(nil)
	}
	if replayErr != nil {
		return nil, fmt.Errorf("replay: %w", replayErr)
	}
	for _, p := range []*phase{untraced, traced} {
		if err := report(name, p); err != nil {
			return nil, err
		}
	}
	extra, err := w.layers(tr, primed)
	if err != nil {
		return nil, err
	}
	un, tc := 1000/mean(untraced.latency), 1000/mean(traced.latency)
	extra["client.latency_p90_ms"] = quantile(untraced.latency, 0.9)
	extra["trace.untraced_ops_per_s"] = un
	extra["trace.traced_ops_per_s"] = tc
	extra["trace.overhead_ratio"] = un / tc
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.writeSpans(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %s (%d spans)\n", spans, len(tr.spans))
	return &result{
		Correct:   untraced.failed == 0 && traced.failed == 0,
		Attempted: untraced.attempted + traced.attempted,
		Failed:    untraced.failed + traced.failed,
		Metrics:   tr.layerReport(os.Stdout, name, extra),
	}, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
