package obs

import (
	"context"
	"runtime/pprof"
	"time"
)

// MetricSolverPhase is the solver latency histogram: one observation per
// whole Schedule call, labelled {alg, phase="schedule"}. The phase label
// stays so existing phase="schedule" queries keep working; it takes no
// other value.
const MetricSolverPhase = "hdlts_solver_phase_seconds"

// solverPhaseBuckets spans 1µs–10s with three log-spaced points per decade:
// small problems solve in tens of µs, 100k-task problems in seconds.
var solverPhaseBuckets = ExpBuckets(1e-6, 10, 3)

// SolveTimer times one whole solve into its algorithm's
// hdlts_solver_phase_seconds series:
//
//	defer obs.StartSolve("HEFT").Stop()
type SolveTimer struct {
	h     *Histogram
	start time.Time
}

// StartSolve starts timing one solve of algorithm alg in the default
// registry. Once alg's series exists it costs one map lookup under the
// registry lock and one clock read, with no allocation.
func StartSolve(alg string) SolveTimer {
	return SolveTimer{h: defaultRegistry.solveHistogram(alg), start: time.Now()}
}

// Stop records the seconds elapsed since StartSolve.
func (t SolveTimer) Stop() { t.h.ObserveSince(t.start) }

// solveHistogram returns alg's solve series, creating it with the
// µs-resolution buckets on first use. The cache is cleared by Reset along
// with the series it points into.
func (r *Registry) solveHistogram(alg string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.solves[alg]; ok {
		return h
	}
	r.buckets[MetricSolverPhase] = solverPhaseBuckets
	k := key(MetricSolverPhase, []string{"alg", alg, "phase", "schedule"})
	h, ok := r.hists[k]
	if !ok {
		h = newHistogram(solverPhaseBuckets)
		r.hists[k] = h
	}
	r.solves[alg] = h
	return h
}

// WithPprofLabels runs fn with pprof goroutine labels {algorithm, phase}
// derived from ctx — the serving-path hook: the daemon wraps each solve so
// profiles from the -debug-addr listener split by algorithm. Labels nest
// and restore on return.
func WithPprofLabels(ctx context.Context, alg, phase string, fn func(context.Context)) {
	pprof.Do(ctx, pprof.Labels("algorithm", alg, "phase", phase), fn)
}
