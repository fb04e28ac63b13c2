// Package core implements HDLTS — Heterogeneous Dynamic List Task
// Scheduling — the contribution of the reproduced paper (Section IV).
//
// HDLTS keeps a dynamic Independent Task Queue (ITQ) holding only the tasks
// whose parents have all finished. On every iteration it:
//
//  1. computes, for every task in the ITQ, the EFT vector across all
//     processors (Eq. 6–7), virtually considering effective entry-task
//     duplication (Algorithm 1);
//  2. assigns each task a Penalty Value PV = sample standard deviation of
//     its EFT vector (Eq. 8) — its execution-time heterogeneity;
//  3. removes the highest-PV task and commits it to the processor with the
//     minimum EFT, materialising an entry duplicate when that is what made
//     the minimum achievable;
//  4. inserts any newly independent tasks into the ITQ and repeats.
//
// The EFT semantics (virtual duplication during estimation, sample-σ PV,
// avail-based placement) were pinned down by hand-reproducing every row of
// the paper's Table I; see DESIGN.md §1.
//
// One engine implements the loop: the *indexed core* (indexed.go) keeps all
// per-iteration state in flat, pooled, index-keyed slices — a selection
// argmax fused into the per-iteration update pass instead of a sorted queue
// or heap, cached parent-arrival vectors instead of recomputed ready times —
// and serves every solve, traced, Table-I and explain solves included.
// Untraced plain solves are allocation-free in the steady state;
// docs/SOLVER.md maps Algorithm 1 onto the core line by line. Decision
// state leaves it only as one per-solve decision record (record.go),
// handed to the problem's tracer; tracer events, the Table-I Step trace
// and the explain rationale (internal/explain) are views of that record.
// The direct transcription of the paper's loop survives only as a
// test-time differential oracle (reference_test.go).
package core

import (
	"math"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
	"hdlts/internal/stats"
)

// metricIterations is the ITQ iteration counter series.
const metricIterations = "hdlts_iterations_total"

// iterationCount totals ITQ iterations across all HDLTS runs in the
// process (each iteration is one PV-ranked selection).
var iterationCount = obs.Default().Counter(metricIterations)

// Options tune HDLTS variants. The zero value is NOT the paper's algorithm;
// use DefaultOptions (or New) for the published configuration. The
// non-default combinations exist for the ablation benches in DESIGN.md §4.
type Options struct {
	// DisableDuplication turns off effective entry-task duplication
	// (Algorithm 1), leaving pure dynamic PV-priority scheduling.
	DisableDuplication bool
	// Insertion switches CPU selection from the paper's avail-based
	// placement (Eq. 6) to HEFT-style insertion-based slot search.
	Insertion bool
	// PopulationSigma computes PV with the population standard deviation
	// (divide by n) instead of the sample form (divide by n−1) that
	// reproduces Table I.
	PopulationSigma bool
	// Lookahead extends CPU selection one level down the workflow: the
	// selected task goes to the processor minimising its own EFT *plus* the
	// estimated EFT of its critical child given that placement. This is an
	// extension targeting the weakness the paper itself diagnoses in its
	// Fig. 4 discussion — HDLTS "does not take a look at the overall
	// structure of the application and the impact of a CPU assignment for a
	// task to its child tasks".
	Lookahead bool
	// MaxWorkers is ignored: every solve runs its update pass on the
	// calling goroutine.
	//
	// Deprecated: there are no solver worker goroutines to cap. The field
	// remains only so existing callers keep compiling.
	MaxWorkers int
}

// DefaultOptions is the configuration published in the paper.
var DefaultOptions = Options{}

// HDLTS is the scheduler. It is stateless between Schedule calls and safe
// for concurrent use.
type HDLTS struct {
	opts Options
}

// New returns HDLTS exactly as published.
func New() *HDLTS { return &HDLTS{opts: DefaultOptions} }

// NewWithOptions returns an HDLTS variant for ablation studies.
func NewWithOptions(o Options) *HDLTS { return &HDLTS{opts: o} }

// Name identifies the algorithm (including any ablation markers) in
// experiment tables.
func (h *HDLTS) Name() string {
	n := "HDLTS"
	if h.opts.DisableDuplication {
		n += "-nodup"
	}
	if h.opts.Insertion {
		n += "-ins"
	}
	if h.opts.PopulationSigma {
		n += "-popσ"
	}
	if h.opts.Lookahead {
		n += "-la"
	}
	return n
}

func (h *HDLTS) policy() sched.Policy {
	return sched.Policy{Insertion: h.opts.Insertion, EntryDuplication: !h.opts.DisableDuplication}
}

// Step records one ITQ iteration for trace output (Table I reproduction).
type Step struct {
	// Ready lists the ITQ content at the start of the step, ascending by ID.
	Ready []dag.TaskID
	// PV holds the penalty value of each ready task, aligned with Ready.
	PV []float64
	// Selected is the task removed from the ITQ this step.
	Selected dag.TaskID
	// EFT is the selected task's earliest-finish-time vector by processor.
	EFT []float64
	// Proc is the processor the task was committed to.
	Proc platform.Proc
	// Duplicated reports whether an entry duplicate was materialised on
	// Proc as part of this commit.
	Duplicated bool
}

// PickHDLTS applies the paper's ITQ decision rule to an arbitrary ready
// set: for each candidate task compute the estimated-EFT vector over the
// given processors, take the penalty value (sample σ, Eq. 8), and return
// the highest-PV task together with its minimum-EFT processor. Strictly-
// greater comparisons keep the earliest candidate on ties, so iterating
// ready ascending by task ID and procs ascending by index makes the rule
// deterministic. ok is false when either set is empty.
//
// It is the run-time form of the rule Schedule applies offline, without
// entry duplication, for the online policy of internal/dynamic only: a
// frontier of placed work re-maps with Extend instead.
func PickHDLTS(ready []dag.TaskID, procs []platform.Proc, eft func(dag.TaskID, platform.Proc) float64) (dag.TaskID, platform.Proc, bool) {
	if len(procs) == 0 || len(ready) == 0 {
		return 0, 0, false
	}
	bestTask, bestPV := dag.None, -1.0
	var bestProc platform.Proc
	v := make([]float64, 0, len(procs))
	for _, t := range ready {
		v = v[:0]
		minEFT, minProc := math.Inf(1), procs[0]
		for _, p := range procs {
			e := eft(t, p)
			v = append(v, e)
			if e < minEFT {
				minEFT, minProc = e, p
			}
		}
		if pv := stats.SampleStdDev(v); pv > bestPV {
			bestTask, bestPV, bestProc = t, pv, minProc
		}
	}
	if bestTask == dag.None {
		return 0, 0, false
	}
	return bestTask, bestProc, true
}

// Schedule maps the problem's workflow onto its platform and returns the
// complete schedule. Multi-entry/multi-exit workflows are normalised with
// zero-cost pseudo tasks first; the returned schedule references the
// normalised problem (its Makespan equals the original workflow's).
func (h *HDLTS) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	return h.run(pr, nil)
}

// ScheduleInto is Schedule reusing the backing storage of a schedule
// returned by a previous call — timelines, placement tables, duplicate
// lists. Combined with the pooled solver arena this makes the steady state
// of a solve stream allocation-free (the solver/hdlts/v10k_steady bench
// pins it at zero allocs/op). prev must not be in use elsewhere; it is
// reset and rebound to pr's normalised form. Passing nil is equivalent to
// Schedule.
func (h *HDLTS) ScheduleInto(pr *sched.Problem, prev *sched.Schedule) (*sched.Schedule, error) {
	return h.run(pr, prev)
}

// ScheduleTrace is Schedule plus the per-iteration trace of ready sets,
// penalty values, selections, and EFT vectors — the exact content of the
// paper's Table I — read from the decision record an obs.RecordKeeper keeps.
func (h *HDLTS) ScheduleTrace(pr *sched.Problem) (*sched.Schedule, []Step, error) {
	keep := new(obs.RecordKeeper)
	s, err := h.run(pr.WithTracer(obs.Multi(pr.Tracer(), keep)), nil)
	if err != nil {
		return nil, nil, err
	}
	return s, stepsOf(keep.Record()), nil
}

// Extend maps every task s leaves unplaced, on the indexed core, from the
// frontier the caller seeded into s (sched.Schedule.Fix and Hold): placed
// tasks are parents that have finished, and each timeline holds its
// processor until it is free. Unlike Schedule it neither normalises nor
// records: a pseudo entry would hold pending entry tasks behind the
// frontier. A caller that cannot run a duplicate disables duplication.
func (h *HDLTS) Extend(s *sched.Schedule) error {
	return h.runIndexed(s, nil)
}

// run normalises the problem and solves it on the indexed core. The solve
// is recorded when the problem carries an enabled tracer — settled here,
// once per solve — and the tracer is handed the decision record whether
// or not the solve succeeded.
func (h *HDLTS) run(pr *sched.Problem, prev *sched.Schedule) (*sched.Schedule, error) {
	pr = pr.Normalize()
	s := prev
	if s != nil {
		s.Reset(pr)
	} else {
		s = sched.NewSchedule(pr)
	}
	var rec *recorder
	if tr := pr.Tracer(); tr.Enabled() {
		rec = newRecorder(pr.NumProcs())
		defer rec.release()
		defer func() { obs.EmitRecord(tr, rec.dr) }()
	}
	if err := h.runIndexed(s, rec); err != nil {
		return nil, err
	}
	return s, nil
}

// lookaheadScore estimates the downstream cost of committing estimate e:
// e's own EFT plus the best achievable EFT of e's *critical child* — the
// child with the largest such minimum — assuming the child's other already-
// scheduled parents stay put and processor availabilities only change on
// e.Proc. Unscheduled co-parents are ignored (their arrivals are unknown),
// making this an optimistic one-level probe in the spirit of
// lookahead-HEFT.
//
//hdlts:hotpath
func (h *HDLTS) lookaheadScore(s *sched.Schedule, e sched.Estimate) float64 {
	pr := s.Problem()
	g := pr.G
	succs := g.Succs(e.Task)
	if len(succs) == 0 {
		return e.EFT
	}
	worstChild := 0.0
	for _, a := range succs {
		child := a.Task
		bestEFT := math.Inf(1)
		for q := 0; q < pr.NumProcs(); q++ {
			proc := platform.Proc(q)
			// Arrival of e's output on q under the tentative placement.
			ready := e.EFT + pr.Comm(a.Data, e.Proc, proc)
			for _, b := range g.Preds(child) {
				if b.Task == e.Task || !s.Placed(b.Task) {
					continue
				}
				if arr := s.Arrival(b.Task, b.Data, proc); arr > ready {
					ready = arr
				}
			}
			avail := s.Avail(proc)
			if proc == e.Proc && e.EFT > avail {
				avail = e.EFT
			}
			if avail > ready {
				ready = avail
			}
			if eft := ready + pr.Exec(child, proc); eft < bestEFT {
				bestEFT = eft
			}
		}
		if bestEFT > worstChild {
			worstChild = bestEFT
		}
	}
	return e.EFT + worstChild
}
