// Package sched provides the scheduling substrate shared by every heuristic
// in this reproduction: the Problem bundle (workflow + platform + cost
// matrix), per-processor timelines with both avail-based (Eq. 3/6) and
// insertion-based placement, EST/EFT computation with optional effective
// entry-task duplication (Algorithm 1 of the paper), schedule validation,
// and Gantt-chart rendering.
package sched

import (
	"fmt"
	"sync"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
)

// Problem is one task-scheduling instance: an application workflow G, a
// heterogeneous platform P, and the W computation-cost matrix. This is the
// tuple G = (V, E, W, C) of Section IV, with C derived from edge data
// volumes and platform bandwidth.
type Problem struct {
	G *dag.Graph
	P *platform.Platform
	W *platform.Costs

	// tracer receives decision events from any scheduler run against this
	// problem; nil means no tracing (Tracer() returns obs.Nop).
	tracer obs.Tracer

	// norm memoises Normalize. Every solver normalises first, and for a
	// multi-entry/multi-exit workflow that used to clone the graph and extend
	// the cost matrix on *every* solve — the single largest allocation source
	// in the benchmark suite. The cache is a pointer so WithTracer's shallow
	// copy can swap in a fresh one (the normalised problem carries the
	// tracer, so copies with different tracers must not share it). A Problem
	// built as a bare literal has norm == nil and falls back to the uncached
	// path.
	norm *normCache
}

// normCache holds the lazily computed normalised form of one Problem.
type normCache struct {
	once sync.Once
	pr   *Problem
}

// WithTracer returns a shallow copy of the problem whose schedulers emit
// decision events to t. The copy shares G, P, and W with the receiver;
// Normalize propagates the tracer.
func (pr *Problem) WithTracer(t obs.Tracer) *Problem {
	cp := *pr
	cp.tracer = obs.OrNop(t)
	cp.norm = &normCache{}
	return &cp
}

// Tracer returns the problem's tracer, obs.Nop when none was attached.
func (pr *Problem) Tracer() obs.Tracer { return obs.OrNop(pr.tracer) }

// NewProblem validates shape compatibility and workflow well-formedness and
// returns the bundled problem.
func NewProblem(g *dag.Graph, p *platform.Platform, w *platform.Costs) (*Problem, error) {
	if g == nil || p == nil || w == nil {
		return nil, fmt.Errorf("sched: nil problem component")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return newProblem(g, p, w)
}

// newProblem is NewProblem for a graph that has already passed Validate.
func newProblem(g *dag.Graph, p *platform.Platform, w *platform.Costs) (*Problem, error) {
	if err := w.Validate(g.NumTasks(), p.NumProcs()); err != nil {
		return nil, err
	}
	return &Problem{G: g, P: p, W: w, norm: &normCache{}}, nil
}

// MustProblem is NewProblem that panics on error, for fixture construction.
func MustProblem(g *dag.Graph, p *platform.Platform, w *platform.Costs) *Problem {
	pr, err := NewProblem(g, p, w)
	if err != nil {
		panic(err)
	}
	return pr
}

// Normalize returns a problem whose workflow has exactly one entry and one
// exit task, adding zero-cost pseudo tasks (and matching zero-cost matrix
// rows) when needed. If the workflow is already normalised the receiver is
// returned unchanged. The result is computed once per Problem and memoised:
// repeated solves of the same instance (the service steady state, the
// benchmark suite) share one normalised form. Safe for concurrent use.
func (pr *Problem) Normalize() *Problem {
	if pr.norm == nil {
		return pr.normalize()
	}
	pr.norm.once.Do(func() {
		np := pr.normalize()
		if np != pr {
			// Normalising the already-normalised problem is the identity, so
			// the copy can share the cache and short-circuit here.
			np.norm = pr.norm
		}
		pr.norm.pr = np
	})
	return pr.norm.pr
}

// normalize is the uncached single-entry/single-exit rewrite.
func (pr *Problem) normalize() *Problem {
	g, changed := dag.NormalizeSingleEntryExit(pr.G)
	if !changed {
		return pr
	}
	extra := g.NumTasks() - pr.G.NumTasks()
	return &Problem{G: g, P: pr.P, W: pr.W.ExtendZeroRows(extra), tracer: pr.tracer}
}

// Exec returns W(t, p), the execution time of task t on processor p.
func (pr *Problem) Exec(t dag.TaskID, p platform.Proc) float64 {
	return pr.W.At(int(t), p)
}

// Comm returns the communication time for the dependency carrying data
// units when producer and consumer run on processors a and b.
func (pr *Problem) Comm(data float64, a, b platform.Proc) float64 {
	return pr.P.CommTime(data, a, b)
}

// MeanComm returns the average communication time of a dependency over all
// distinct processor pairs — the edge weight used by mean-based upward ranks
// (HEFT, CPOP). Under uniform bandwidth this is simply the data volume.
func (pr *Problem) MeanComm(data float64) float64 {
	p := pr.P.NumProcs()
	if p < 2 || data == 0 {
		return 0
	}
	sum := 0.0
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			if a != b {
				sum += pr.Comm(data, platform.Proc(a), platform.Proc(b))
			}
		}
	}
	return sum / float64(p*(p-1))
}

// NumTasks is shorthand for the workflow task count.
func (pr *Problem) NumTasks() int { return pr.G.NumTasks() }

// NumProcs is shorthand for the platform processor count.
func (pr *Problem) NumProcs() int { return pr.P.NumProcs() }

// SeqTimeOnBestProc returns min over processors of the sum of all task
// execution times on that processor — the numerator of Speedup (Eq. 11).
func (pr *Problem) SeqTimeOnBestProc() float64 {
	best := 0.0
	for p := 0; p < pr.NumProcs(); p++ {
		sum := 0.0
		for t := 0; t < pr.NumTasks(); t++ {
			sum += pr.W.At(t, platform.Proc(p))
		}
		if p == 0 || sum < best {
			best = sum
		}
	}
	return best
}

// CPMinLowerBound returns the makespan lower bound used as the SLR
// denominator (Eq. 10): the critical path is computed with every task
// weighted by its minimum execution time (communication excluded, since a
// perfect schedule co-locates the path), and the bound is the sum of those
// minimum times along the path.
func (pr *Problem) CPMinLowerBound() (float64, error) {
	node := func(t dag.TaskID) float64 {
		m, _ := pr.W.Min(int(t))
		return m
	}
	_, total, err := pr.G.CriticalPath(node, dag.ZeroEdges)
	return total, err
}
