// Package perf defines the repository's canonical benchmark suite and the
// persisted benchmark trajectory built on top of it: every run captures
// ns/op, allocs/op, bytes/op, GC activity, and environment metadata into a
// schema-versioned report, and Compare diffs a candidate run against a
// checked-in baseline with configurable regression thresholds. The
// cmd/hdltsbench driver wires the two together; BENCH_<n>.json files at the
// repository root are the trajectory itself, one per recorded epoch.
package perf

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// SchemaVersion stamps every report; Load rejects other versions so a
// future schema change cannot silently mis-compare against old files.
const SchemaVersion = 1

// SuiteName names the canonical suite; reports from other suites (none
// exist today) would not be comparable.
const SuiteName = "canonical"

// Bench is one named benchmark in the suite.
type Bench struct {
	// Name identifies the benchmark across runs ("solver/hdlts/v10k").
	Name string
	// HotPath marks benchmarks whose allocs/op the trajectory gates
	// strictly: any increase is a regression, mirroring the
	// //hdlts:hotpath analyzer contract.
	HotPath bool
	// Quick includes the benchmark in -quick runs (the CI profile).
	Quick bool
	// Benchtime overrides the runner's default -test.benchtime for this
	// benchmark ("1x", "200ms"); empty inherits the default.
	Benchtime string
	// F is the benchmark body. It must call b.ReportAllocs so allocs/op
	// and bytes/op are recorded.
	F func(b *testing.B)
}

// Env records where a report was produced. ns/op is only gated when the
// baseline and candidate ran on comparable hardware (same CPU model and
// count); allocs/op is machine-independent and always gated.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// Comparable reports whether ns/op measured under e and o can be compared.
func (e Env) Comparable(o Env) bool {
	return e.CPUModel == o.CPUModel && e.NumCPU == o.NumCPU && e.GOARCH == o.GOARCH
}

// Result is one benchmark's measurement.
type Result struct {
	Name        string             `json:"name"`
	HotPath     bool               `json:"hot_path"`
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	GCCycles    uint32             `json:"gc_cycles"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is one recorded epoch of the benchmark trajectory.
type Report struct {
	SchemaVersion int      `json:"schema_version"`
	Suite         string   `json:"suite"`
	Quick         bool     `json:"quick"`
	CreatedUnix   int64    `json:"created_unix"`
	Env           Env      `json:"env"`
	Results       []Result `json:"results"`
}

// Find returns the named result, or nil.
func (r *Report) Find(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// RunOptions tune one suite execution.
type RunOptions struct {
	// Quick restricts the run to Quick-marked benchmarks and shortens the
	// default benchtime (the CI profile).
	Quick bool
	// Filter, when non-nil, further restricts by name.
	Filter *regexp.Regexp
	// Benchtime overrides the default -test.benchtime for benchmarks
	// without their own override. Empty means 1s (200ms under Quick).
	Benchtime string
	// Log, when non-nil, receives one progress line per benchmark.
	Log io.Writer
}

func (o RunOptions) defaultBenchtime() string {
	if o.Benchtime != "" {
		return o.Benchtime
	}
	if o.Quick {
		return "200ms"
	}
	return "1s"
}

// Selected returns the benchmarks the options keep, in suite order.
func Selected(benches []Bench, opts RunOptions) []Bench {
	out := make([]Bench, 0, len(benches))
	for _, bn := range benches {
		if opts.Quick && !bn.Quick {
			continue
		}
		if opts.Filter != nil && !opts.Filter.MatchString(bn.Name) {
			continue
		}
		out = append(out, bn)
	}
	return out
}

// RunSuite executes the selected benchmarks sequentially and assembles the
// report. Benchmarks run via testing.Benchmark, so the process must not be
// under `go test` benchmark execution itself; from tests, call it in a
// plain test function. ns/op, N and GC cycles come from a benchmark's
// first run; an allocating benchmark is re-run for its allocation figures
// (see fewestAllocs).
func RunSuite(benches []Bench, opts RunOptions) (*Report, error) {
	if flag.Lookup("test.benchtime") == nil {
		testing.Init()
	}
	prev := flag.Lookup("test.benchtime").Value.String()
	defer flag.Set("test.benchtime", prev)

	rep := &Report{
		SchemaVersion: SchemaVersion,
		Suite:         SuiteName,
		Quick:         opts.Quick,
		CreatedUnix:   time.Now().Unix(),
		Env:           CaptureEnv(),
	}
	for _, bn := range Selected(benches, opts) {
		bt := bn.Benchtime
		if bt == "" {
			bt = opts.defaultBenchtime()
		}
		if err := flag.Set("test.benchtime", bt); err != nil {
			return nil, fmt.Errorf("perf: set benchtime %q: %w", bt, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := testing.Benchmark(bn.F)
		runtime.ReadMemStats(&after)
		if res.N == 0 {
			return nil, fmt.Errorf("perf: benchmark %s failed (0 iterations)", bn.Name)
		}
		r := Result{
			Name:        bn.Name,
			HotPath:     bn.HotPath,
			N:           res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			GCCycles:    after.NumGC - before.NumGC,
		}
		fewestAllocs(bn.F, &r)
		if len(res.Extra) > 0 {
			r.Metrics = make(map[string]float64, len(res.Extra))
			for k, v := range res.Extra {
				r.Metrics[k] = v
			}
		}
		rep.Results = append(rep.Results, r)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "%-32s %12.0f ns/op %8d B/op %6d allocs/op  (n=%d)\n",
				bn.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.N)
		}
	}
	return rep, nil
}

// allocRuns caps how many times RunSuite runs one allocating benchmark.
const allocRuns = 3

// fewestAllocs re-runs an allocating benchmark until two runs agree on
// allocs/op, at most allocRuns runs in all, and lowers r's allocs/op and
// B/op to the fewest seen. testing.Benchmark counts the mallocs of every
// goroutine in the process, so on a loaded host allocations made
// elsewhere land on a run's figures. They can only add, so the fewest is
// the benchmark's own.
func fewestAllocs(f func(*testing.B), r *Result) {
	for i := 1; i < allocRuns && r.AllocsPerOp > 0; i++ {
		again := testing.Benchmark(f)
		if again.N == 0 {
			return
		}
		allocs := again.AllocsPerOp()
		settled := allocs == r.AllocsPerOp
		r.AllocsPerOp = min(r.AllocsPerOp, allocs)
		r.BytesPerOp = min(r.BytesPerOp, again.AllocedBytesPerOp())
		if settled {
			return
		}
	}
}

// CaptureEnv snapshots the current machine.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel best-effort reads the CPU model name (Linux /proc/cpuinfo);
// empty elsewhere, which simply disables cross-machine ns/op gating.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
