package sched

import (
	"fmt"
	"math"

	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
)

// Substrate metric series names.
const (
	metricEstimates  = "hdlts_sched_estimates_total"
	metricCommits    = "hdlts_sched_commits_total"
	metricDuplicates = "hdlts_sched_duplicates_total"
)

// Substrate-level metrics: every scheduler funnels through Estimate and
// Commit, so these counters measure decision cost uniformly across
// algorithms. They live in the default obs registry.
var (
	estimateCount  = obs.Default().Counter(metricEstimates)
	commitCount    = obs.Default().Counter(metricCommits)
	duplicateCount = obs.Default().Counter(metricDuplicates)
)

// Policy selects how EST/EFT are computed and how tasks are committed onto
// timelines. The paper's heuristics differ exactly along these two axes.
type Policy struct {
	// Insertion enables the insertion-based slot search (HEFT, CPOP, PETS,
	// PEFT). When false, placement is avail-based: EST = max(ready, Avail(p))
	// per Eq. (6), which is what HDLTS uses.
	Insertion bool
	// EntryDuplication enables Algorithm 1's effective entry-task
	// duplication: while estimating EST on processor p, a child of the entry
	// task may virtually restart the entry task at time 0 on p; the duplicate
	// is materialised at commit time only when it strictly improves the
	// committed start time (HDLTS, SDBATS).
	EntryDuplication bool
}

// HDLTSPolicy is the policy used by the paper's algorithm.
var HDLTSPolicy = Policy{Insertion: false, EntryDuplication: true}

// InsertionPolicy is the plain insertion-based policy of HEFT/PETS/PEFT/CPOP.
var InsertionPolicy = Policy{Insertion: true}

// Estimate is the result of evaluating one (task, processor) pair.
type Estimate struct {
	Task  dag.TaskID
	Proc  platform.Proc
	Ready float64 // earliest time all inputs are available on Proc
	EST   float64 // earliest start time (Eq. 6 or insertion slot)
	EFT   float64 // EST + W(task, Proc) (Eq. 7)
	// UseDuplicate is set when Ready relies on a not-yet-materialised entry
	// duplicate on Proc; committing this estimate must materialise it.
	UseDuplicate bool
	// DupTask is the parentless parent the duplicate copies (valid only
	// when UseDuplicate). Normalised problems have at most one candidate
	// (the unique entry); for raw multi-entry graphs only the first
	// parentless parent is ever considered, keeping the single-duplicate
	// estimate sound.
	DupTask dag.TaskID
	// DupStart/DupFinish describe the virtual duplicate when UseDuplicate.
	DupStart, DupFinish float64
}

// ReadyTime computes Ready(t, p) (Definition 5): the earliest time every
// parent output is available on processor p, taking all scheduled copies
// (including existing duplicates) into account. With entry duplication
// enabled it additionally considers restarting the entry-task parent at
// time 0 on p when no copy exists there and the [0, W(entry, p)) interval is
// idle; only the first parentless parent is considered (normalised problems
// have at most one). It reports whether the virtual duplicate lowered the
// ready time, which task it copies, and its would-be finish time.
//
// ReadyTime returns an error if some parent of t is still unscheduled: the
// caller must submit tasks in precedence order (the ITQ guarantees this).
//
//hdlts:hotpath
func (s *Schedule) ReadyTime(t dag.TaskID, p platform.Proc, pol Policy) (ready float64, usedDup bool, dupTask dag.TaskID, dupFinish float64, err error) {
	g := s.prob.G
	readyWith, readyWithout := 0.0, 0.0
	dupTask = dag.None
	dupFinish = math.NaN()
	dupConsidered := false
	for _, a := range g.Preds(t) {
		u := a.Task
		arr := s.arrivalFromCopies(u, a.Data, p)
		if math.IsInf(arr, 1) {
			return 0, false, dag.None, 0, fmt.Errorf("sched: parent %d of task %d is not scheduled yet", u, t)
		}
		arrWith := arr
		if pol.EntryDuplication && !dupConsidered && g.InDegree(u) == 0 {
			dupConsidered = true
			if !s.HasCopyOn(u, p) {
				if w := s.prob.Exec(u, p); s.FreeAt(p, 0, w) && w < arrWith {
					arrWith = w
					dupTask = u
					dupFinish = w
				}
			}
		}
		if arrWith > readyWith {
			readyWith = arrWith
		}
		if arr > readyWithout {
			readyWithout = arr
		}
	}
	if pol.EntryDuplication && dupTask != dag.None && readyWith < readyWithout {
		return readyWith, true, dupTask, dupFinish, nil
	}
	return readyWithout, false, dag.None, 0, nil
}

// FillArrivals caches the placement-independent half of ReadyTime for a
// queued task: per-processor parent-output arrival times. Once every parent
// of t is placed, these arrivals change only when a *new copy* of a parent
// materialises (entry-task duplication) — commits of unrelated tasks leave
// them untouched — so the indexed HDLTS core fills them once per enqueue and
// answers later estimates in O(1) per processor via EstimateArrived.
//
// entry and other must each have length NumProcs. other[p] receives the
// maximum arrival over all parents except the duplication candidate (0 when
// none); when pol.EntryDuplication is set and t has a parentless parent, the
// first such parent (in predecessor order, mirroring ReadyTime) becomes the
// candidate: its ID is returned and entry[p] receives its arrival. Without a
// candidate the returned ID is dag.None and entry is untouched.
//
// Like ReadyTime it errors when a parent of t is still unscheduled.
//
//hdlts:hotpath
func (s *Schedule) FillArrivals(t dag.TaskID, pol Policy, entry, other []float64) (dag.TaskID, error) {
	g := s.prob.G
	np := s.prob.NumProcs()
	uniform := s.prob.P.Uniform()
	// Reslicing to np lets the compiler drop bounds checks in the
	// per-processor loops below.
	entry, other = entry[:np], other[:np]
	for p := range other {
		other[p] = 0
	}
	entryTask := dag.None
	// Under unit bandwidth an un-duplicated parent contributes Finish+Data
	// to every column except its own processor, which sees Finish. Rather
	// than sweeping np columns per parent, fold the parents into the two
	// largest Finish+Data values held on *distinct* processors (m1 on p1,
	// m2 elsewhere) plus a per-own-processor Finish merged directly into
	// other, then compose the columns in one O(np) pass: column p1 takes
	// m2, every other column takes m1. All of it is comparisons and copies
	// of already-computed sums, so the result is bit-identical to the
	// per-parent sweep. Parents with duplicates (or non-uniform platforms)
	// keep the generic per-column merge.
	m1, m2 := 0.0, 0.0
	var p1 platform.Proc = -1
	for _, a := range g.Preds(t) {
		u := a.Task
		// The parent's primary placement is resolved once per parent, not
		// once per (parent, processor) as arrivalFromCopies would.
		pc := s.primary[u]
		if pc.Proc == unplaced {
			return dag.None, fmt.Errorf("sched: parent %d of task %d is not scheduled yet", u, t)
		}
		if pol.EntryDuplication && entryTask == dag.None && g.InDegree(u) == 0 {
			entryTask = u
			s.arrivalsInto(pc, u, a.Data, uniform, entry)
			continue
		}
		dups := s.dups[u]
		if uniform && len(dups) == 0 {
			base := pc.Finish + a.Data
			if fin := pc.Finish; fin > other[pc.Proc] {
				other[pc.Proc] = fin
			}
			switch {
			case pc.Proc == p1:
				if base > m1 {
					m1 = base
				}
			case base > m1:
				// The displaced m1 sits on a processor other than the new
				// p1 and dominates everything seen before it, so it is
				// exactly the new exclude-p1 maximum.
				m2, m1, p1 = m1, base, pc.Proc
			case base > m2:
				m2 = base
			}
			continue
		}
		for p := 0; p < np; p++ {
			arr := pc.Finish + s.prob.Comm(a.Data, pc.Proc, platform.Proc(p))
			for _, c := range dups {
				if v := c.Finish + s.prob.Comm(a.Data, c.Proc, platform.Proc(p)); v < arr {
					arr = v
				}
			}
			if arr > other[p] {
				other[p] = arr
			}
		}
	}
	if p1 >= 0 {
		for p := range other {
			b := m1
			if platform.Proc(p) == p1 {
				b = m2
			}
			if b > other[p] {
				other[p] = b
			}
		}
	}
	return entryTask, nil
}

// arrivalsInto writes parent u's per-processor output arrival (earliest
// over all copies) into dst — the overwrite form FillArrivals uses for the
// duplication candidate's row. pc is u's already-resolved primary placement.
//
//hdlts:hotpath
func (s *Schedule) arrivalsInto(pc Placement, u dag.TaskID, data float64, uniform bool, dst []float64) {
	np := s.prob.NumProcs()
	dups := s.dups[u]
	if uniform && len(dups) == 0 {
		base := pc.Finish + data
		for p := 0; p < np; p++ {
			dst[p] = base
		}
		dst[pc.Proc] = pc.Finish
		return
	}
	for p := 0; p < np; p++ {
		arr := pc.Finish + s.prob.Comm(data, pc.Proc, platform.Proc(p))
		for _, c := range dups {
			if v := c.Finish + s.prob.Comm(data, c.Proc, platform.Proc(p)); v < arr {
				arr = v
			}
		}
		dst[p] = arr
	}
}

// EstimateArrived is Estimate for callers holding arrival caches from
// FillArrivals: entryArr/otherArr are that call's entry[p]/other[p] and
// entryTask its returned candidate. The result is bit-identical to
// Estimate(t, p, pol) as long as no new copy of a parent of t has been
// placed since the arrivals were filled (the caller re-fills after any
// duplication). Unlike Estimate it never errors — the fill already proved
// every parent placed — and it neither emits tracer events nor bumps the
// substrate estimate counter: the indexed core runs only untraced and
// batch-accounts its estimates.
//
//hdlts:hotpath
func (s *Schedule) EstimateArrived(t dag.TaskID, p platform.Proc, pol Policy, entryTask dag.TaskID, entryArr, otherArr float64) Estimate {
	dur := s.prob.Exec(t, p)
	readyWithout := otherArr
	if entryTask != dag.None && entryArr > readyWithout {
		readyWithout = entryArr
	}
	ready := readyWithout
	usedDup := false
	dupFinish := 0.0
	if pol.EntryDuplication && entryTask != dag.None && !s.HasCopyOn(entryTask, p) {
		if w := s.prob.Exec(entryTask, p); s.FreeAt(p, 0, w) && w < entryArr {
			readyWith := otherArr
			if w > readyWith {
				readyWith = w
			}
			if readyWith < readyWithout {
				ready = readyWith
				usedDup = true
				dupFinish = w
			}
		}
	}
	e := Estimate{Task: t, Proc: p, Ready: ready, EST: s.startFor(p, ready, dur, pol), DupTask: dag.None}
	if usedDup {
		// Same strict-improvement rule as Estimate: keep the duplicate only
		// when it lowers the committed start.
		if estPlain := s.startFor(p, readyWithout, dur, pol); e.EST < estPlain {
			e.UseDuplicate = true
			e.DupTask = entryTask
			e.DupStart = 0
			e.DupFinish = dupFinish
		} else {
			e.Ready = readyWithout
			e.EST = estPlain
		}
	}
	e.EFT = e.EST + dur
	return e
}

// CountEstimates adds n to the substrate estimate counter on behalf of
// callers that go through EstimateArrived, which does not bump the counter
// per call: the indexed HDLTS core batches one Add per solve instead of
// ~V·P atomic increments, keeping the counter's meaning (one unit per
// (task, processor) evaluation) identical across engines.
func CountEstimates(n int64) {
	if n > 0 {
		estimateCount.Add(n)
	}
}

// Estimate evaluates task t on processor p under the policy: it computes
// Ready, EST, and EFT, deciding whether the virtual entry duplicate is
// actually beneficial for the *committed* start (a duplicate that does not
// strictly reduce EST is discarded, implementing "duplicate the entry task
// only if it helps to reduce the overall application execution time").
//
//hdlts:hotpath
func (s *Schedule) Estimate(t dag.TaskID, p platform.Proc, pol Policy) (Estimate, error) {
	estimateCount.Inc()
	dur := s.prob.Exec(t, p)

	ready, usedDup, dupTask, dupFinish, err := s.ReadyTime(t, p, pol)
	if err != nil {
		return Estimate{}, err
	}
	e := Estimate{Task: t, Proc: p, Ready: ready, EST: s.startFor(p, ready, dur, pol), DupTask: dag.None}
	if usedDup {
		// Compare against the duplication-free alternative; keep the
		// duplicate only when it strictly improves the start time.
		readyPlain, _, _, _, err := s.ReadyTime(t, p, Policy{Insertion: pol.Insertion})
		if err != nil {
			return Estimate{}, err
		}
		if estPlain := s.startFor(p, readyPlain, dur, pol); e.EST < estPlain {
			e.UseDuplicate = true
			e.DupTask = dupTask
			e.DupStart = 0
			e.DupFinish = dupFinish
		} else {
			e.Ready = readyPlain
			e.EST = estPlain
		}
	}
	e.EFT = e.EST + dur
	if tr := s.prob.Tracer(); tr.Enabled() {
		tr.Emit(obs.Event{Type: obs.EvEstimate, Task: int(t), Proc: int(p), Start: e.EST, Finish: e.EFT, Dup: e.UseDuplicate})
	}
	return e, nil
}

// startFor computes the earliest start for a task of length dur that is
// ready on processor p at time ready: the insertion-based slot search when
// the policy asks for it, avail-based placement (Eq. 6) otherwise.
//
//hdlts:hotpath
func (s *Schedule) startFor(p platform.Proc, ready, dur float64, pol Policy) float64 {
	if pol.Insertion {
		return s.EarliestFit(p, ready, dur)
	}
	if a := s.Avail(p); a > ready {
		return a
	}
	return ready
}

// EstimateAll evaluates t on every processor, reusing a caller-provided
// buffer when it has sufficient capacity. The result is indexed by
// processor.
//
//hdlts:hotpath
func (s *Schedule) EstimateAll(t dag.TaskID, pol Policy, buf []Estimate) ([]Estimate, error) {
	n := s.prob.NumProcs()
	if cap(buf) < n {
		buf = make([]Estimate, n)
	}
	buf = buf[:n]
	for p := 0; p < n; p++ {
		e, err := s.Estimate(t, platform.Proc(p), pol)
		if err != nil {
			return nil, err
		}
		buf[p] = e
	}
	return buf, nil
}

// BestEFT evaluates t on every processor and returns the estimate with the
// minimum EFT (Eq. 7); ties go to the lower processor index, keeping
// schedules deterministic.
//
//hdlts:hotpath
func (s *Schedule) BestEFT(t dag.TaskID, pol Policy) (Estimate, error) {
	var best Estimate
	found := false
	for p := 0; p < s.prob.NumProcs(); p++ {
		e, err := s.Estimate(t, platform.Proc(p), pol)
		if err != nil {
			return Estimate{}, err
		}
		if !found || e.EFT < best.EFT {
			best, found = e, true
		}
	}
	return best, nil
}

// Commit places task t per the estimate, materialising the entry duplicate
// first when the estimate relies on one, and emits one EvCommit per
// placement to the problem's tracer.
//
//hdlts:hotpath
func (s *Schedule) Commit(e Estimate) error {
	return s.commit(e, s.prob.Tracer())
}

// CommitUntraced is Commit without the commit events, for solvers whose
// decision record reports their placements (HDLTS).
//
//hdlts:hotpath
func (s *Schedule) CommitUntraced(e Estimate) error {
	return s.commit(e, obs.Nop)
}

//hdlts:hotpath
func (s *Schedule) commit(e Estimate, tr obs.Tracer) error {
	if e.UseDuplicate {
		// The duplicate must copy a parentless parent of the committed task
		// (hand-built estimates could otherwise duplicate arbitrary tasks).
		valid := false
		for _, a := range s.prob.G.Preds(e.Task) {
			if a.Task == e.DupTask && s.prob.G.InDegree(a.Task) == 0 {
				valid = true
				break
			}
		}
		if !valid {
			return fmt.Errorf("sched: estimate for task %d names duplicate task %d, which is not a parentless parent", e.Task, e.DupTask)
		}
		if err := s.PlaceDuplicate(e.DupTask, e.Proc, e.DupStart); err != nil {
			return err
		}
		duplicateCount.Inc()
		if tr.Enabled() {
			tr.Emit(obs.Event{Type: obs.EvCommit, Task: int(e.DupTask), Proc: int(e.Proc), Start: e.DupStart, Finish: e.DupFinish, Dup: true})
		}
	}
	if err := s.Place(e.Task, e.Proc, e.EST); err != nil {
		return err
	}
	commitCount.Inc()
	if tr.Enabled() {
		tr.Emit(obs.Event{Type: obs.EvCommit, Task: int(e.Task), Proc: int(e.Proc), Start: e.EST, Finish: e.EFT})
	}
	return nil
}
