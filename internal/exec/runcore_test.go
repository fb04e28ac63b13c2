package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hdlts/internal/core"
	"hdlts/internal/dag"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
	"hdlts/internal/wire"
)

// source draws a simulation's choices: a seeded generator, or fuzz bytes.
type source interface{ Intn(n int) int }

// byteSource reads choices from fuzz input, one byte each; past its end
// every choice is 0.
type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	s.b = s.b[1:]
	return v % n
}

// simWorkflow draws a random DAG of 2–30 steps over 1–4 processors, with
// per-processor estimates, retries and a drift threshold.
func simWorkflow(src source) *Workflow {
	wf := &Workflow{Name: "sim", Procs: 1 + src.Intn(4), Drift: 1.2 + float64(src.Intn(20))/10}
	n := 2 + src.Intn(29)
	for i := 0; i < n; i++ {
		st := Step{Name: fmt.Sprintf("s%d", i), Command: "true", Retries: src.Intn(3)}
		for p := 0; p < wf.Procs; p++ {
			st.Costs = append(st.Costs, float64(1+src.Intn(20))/20)
		}
		for j := 0; j < i && len(st.Depends) < 4; j++ {
			if src.Intn(3) == 0 {
				st.Depends = append(st.Depends, fmt.Sprintf("s%d", j))
			}
		}
		wf.Steps = append(wf.Steps, st)
	}
	return wf
}

// simRecord is the record Submit stores for wf, with wf's compiled
// problem and dispatch order.
func simRecord(t testing.TB, e *Engine, wf *Workflow) (*Record, *sched.Problem, [][]int) {
	t.Helper()
	pr, err := wf.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rec, order, err := e.plan(context.Background(), wf, pr)
	if err != nil {
		t.Fatal(err)
	}
	rec.ID = "wf-sim"
	return rec, pr, order
}

// oracleOrder is the re-plan as a hand-written loop over core.PickHDLTS,
// the differential oracle of the seeded solve: it returns the dispatch
// queues c's re-plan at now must build. It repeatedly picks from the
// steps whose predecessors all have (actual or projected) finish times,
// committing each pick into the projection before the next. Done steps
// finish when they did, running steps at their projection, and each
// processor is free at its latest projected finish.
func oracleOrder(c *runCore, now float64) [][]int {
	steps := c.rec.Steps
	procs := make([]platform.Proc, len(c.busy))
	for p := range procs {
		procs[p] = platform.Proc(p)
	}
	var pending []dag.TaskID
	for i := range steps {
		if steps[i].State == StepPending {
			pending = append(pending, dag.TaskID(i))
		}
	}
	avail := make([]float64, len(procs))
	for p := range avail {
		avail[p] = now
	}
	finish := make([]float64, len(steps))
	for i, st := range steps {
		switch st.State {
		case StepDone: // an earlier life's at 0
			finish[i] = maxf(c.rel(st.FinishedAt), 0)
		case StepRunning:
			finish[i] = c.rel(st.StartedAt) + c.proj[i]
			avail[st.Proc] = maxf(avail[st.Proc], finish[i])
		}
	}
	predsLeft := make([]int, len(steps))
	var ready []dag.TaskID
	for _, t := range pending {
		for _, a := range c.pr.G.Preds(t) {
			if steps[a.Task].State == StepPending {
				predsLeft[t]++
			}
		}
		if predsLeft[t] == 0 {
			ready = append(ready, t)
		}
	}
	eft := func(t dag.TaskID, p platform.Proc) float64 {
		arr := avail[p]
		for _, a := range c.pr.G.Preds(t) {
			arr = maxf(arr, finish[a.Task])
		}
		return arr + c.est(int(t), int(p))
	}
	order := make([][]int, len(procs))
	for range pending {
		slices.Sort(ready)
		t, p, ok := core.PickHDLTS(ready, procs, eft)
		if !ok {
			return nil
		}
		finish[t] = eft(t, p)
		avail[p] = finish[t]
		order[p] = append(order[p], int(t))
		k := slices.Index(ready, t)
		ready = slices.Delete(ready, k, k+1)
		for _, a := range c.pr.G.Succs(t) {
			if steps[a.Task].State == StepPending {
				if predsLeft[a.Task]--; predsLeft[a.Task] == 0 {
					ready = append(ready, a.Task)
				}
			}
		}
	}
	return order
}

// simStats counts what a simulated run went through.
type simStats struct {
	replans map[string]int // by phase
	retries int
	failed  bool
	resumed bool
}

// errSim is a simulated step failure.
var errSim = errors.New("simulated failure")

// simulate runs wf through the run core in virtual time, as the run loop
// runs it in wall time: a pass, then the next wake-up — the earliest
// completion, or the next overdue tick if that comes first. Each attempt
// draws a jittered duration (a few overrun their estimate several times
// over) and fails with odds 1 in 5. At one random pass the process dies:
// the record as that pass committed it goes through its WAL codec, its
// running steps return to pending as adopt returns them, and a new core
// resumes it with a fresh clock. simulate checks the core's invariants at
// every transition, and holds every re-plan of a completion, an overdue
// check or a resume to oracleOrder's queues. It returns the final record.
func simulate(t testing.TB, e *Engine, src source, wf *Workflow) (*Record, simStats) {
	t.Helper()
	rec, pr, order := simRecord(t, e, wf)
	s := simStats{replans: map[string]int{}}
	n := len(wf.Steps)
	parents := make([][]int, n)
	for i := range wf.Steps {
		for _, a := range pr.G.Preds(dag.TaskID(i)) {
			parents[i] = append(parents[i], int(a.Task))
		}
	}
	interrupted := make([]int, n) // attempts a crash cut short, per step
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	c := newRunCore(e, rec, pr, order, start)
	type attempt struct {
		step     int
		end, dur float64
		fail     bool
	}
	var inflight []attempt
	cut := 1 + src.Intn(3*n)
	now, tick, ticks := 0.0, overdueTick.Seconds(), 1 // ticks: the next tick's number this life
	prev := make([]StepStatus, n)
	terminal := 0

	// check holds a transition of the core to the invariants and consumes
	// the events it added, as the run loop publishes them, so that each is
	// counted once.
	check := func(what string) {
		t.Helper()
		busy := make([]int, wf.Procs)
		for i, st := range rec.Steps {
			was := prev[i]
			if st.State == StepRunning {
				busy[st.Proc]++
			}
			if was.State != StepPending && st.Proc != was.Proc {
				t.Fatalf("%s at %g: %s %s moved from proc %d to %d", what, now, was.State, st.Name, was.Proc, st.Proc)
			}
			if st.State == StepRunning && was.State != StepRunning {
				for _, a := range parents[i] {
					if rec.Steps[a].State != StepDone {
						t.Fatalf("%s at %g: %s started before parent %s is done", what, now, st.Name, rec.Steps[a].Name)
					}
				}
			}
			if max := wf.Steps[i].Retries + 1 + interrupted[i]; st.Attempts > max {
				t.Fatalf("%s: %s has %d attempts, at most %d allowed", what, st.Name, st.Attempts, max)
			}
		}
		for p, b := range busy {
			if b > 1 {
				t.Fatalf("%s at %g: %d steps run on proc %d", what, now, b, p)
			}
		}
		for _, ev := range c.events {
			switch ev.Kind {
			case obs.KindWorkflowReplan:
				s.replans[ev.Phase]++
				// A pass may have dispatched from the queues since the
				// re-plan; the other transitions leave them as it built them.
				if what == "pass" || what == "finalize" {
					continue
				}
				if want := oracleOrder(c, now); !slices.EqualFunc(c.order, want, slices.Equal[[]int]) {
					t.Fatalf("%s at %g: re-plan queues %v, the PickHDLTS loop's %v", what, now, c.order, want)
				}
			case obs.KindWorkflowDone:
				terminal++
			case obs.KindStepFail:
				if ev.Phase == "retry" {
					s.retries++
				}
			}
		}
		c.events = c.events[:0]
		copy(prev, rec.Steps)
	}

	copy(prev, rec.Steps)
	for iter := 0; ; iter++ {
		if iter > 1e6 {
			t.Fatalf("the run never ended: now %g, %d in flight, core running %d failing %v, order %v, steps %+v", now, len(inflight), c.running, c.failing, c.order, rec.Steps)
		}
		st, errMsg, over := c.pass(now)
		check("pass")
		if over {
			c.finalize(now, st, errMsg)
			check("finalize")
			break
		}
		for _, l := range c.launches {
			w := rec.Steps[l.step].EstSeconds
			d := w * float64(2+src.Intn(14)) / 10
			if src.Intn(8) == 0 {
				d = w * float64(5+src.Intn(10))
			}
			inflight = append(inflight, attempt{step: l.step, end: now + d, dur: d, fail: src.Intn(5) == 0})
		}
		c.reset()
		if cut--; cut == 0 {
			// The process dies: what the pass committed is all that is left.
			w := wire.GetWriter(false)
			rec.AppendRecord(w)
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
			rec = new(Record)
			if err := rec.UnmarshalJSON(w.Bytes()); err != nil {
				t.Fatal(err)
			}
			w.Free()
			for i := range rec.Steps {
				if rec.Steps[i].State == StepRunning {
					rec.Steps[i].State = StepPending
					interrupted[i]++
				}
			}
			copy(prev, rec.Steps)
			inflight = inflight[:0]
			start = start.Add(time.Duration(now * float64(time.Second)))
			now, ticks = 0, 1
			c = newRunCore(e, rec, pr, nil, start)
			s.resumed = true
			check("resume")
			c.reset()
			continue
		}
		next := -1
		for k, a := range inflight {
			if next < 0 || a.end < inflight[next].end {
				next = k
			}
		}
		if tickAt := float64(ticks) * tick; next < 0 || inflight[next].end > tickAt {
			now = tickAt
			ticks++
			c.overdue(now)
			check("overdue")
			continue
		}
		a := inflight[next]
		inflight = append(inflight[:next], inflight[next+1:]...)
		now = a.end
		var err error
		if a.fail {
			err = errSim
		}
		c.complete(now, a.step, a.dur, err)
		check("complete")
	}
	if terminal != 1 || !rec.State.Terminal() {
		t.Fatalf("record is %s after %d workflow.done events, want terminal after one", rec.State, terminal)
	}
	for _, st := range rec.Steps {
		if rec.State == Done && st.State != StepDone {
			t.Fatalf("done workflow has %s %s", st.State, st.Name)
		}
		s.failed = s.failed || st.State == StepFailed
	}
	if rec.State == Failed && !s.failed {
		t.Fatalf("failed workflow (%s) has no failed step", rec.Error)
	}
	logged := 0
	for _, k := range s.replans {
		logged += k
	}
	if logged != rec.Replans {
		t.Fatalf("%d re-plan events %v, the record counts %d re-plans", logged, s.replans, rec.Replans)
	}
	return rec, s
}

// simEngine is a memory-only engine whose run core the simulations drive.
func simEngine(t testing.TB) *Engine {
	e, err := Open(Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close(context.Background()) })
	return e
}

// TestRunCoreVirtualTime drives 1,000 seeded workflows through the run
// core in virtual time — random DAGs, jittered durations, failures with
// retries, drift and overdue re-plans, and a crash and resume in each —
// holding every transition to the invariants simulate checks. The same
// seed must give a byte-identical record.
func TestRunCoreVirtualTime(t *testing.T) {
	e := simEngine(t)
	replans := map[string]int{}
	var recorded, retries, failed, resumed int
	for seed := int64(0); seed < 1000; seed++ {
		src := rand.New(rand.NewSource(seed))
		rec, s := simulate(t, e, src, simWorkflow(src))
		src = rand.New(rand.NewSource(seed))
		again, _ := simulate(t, e, src, simWorkflow(src))
		a, _ := json.Marshal(rec)
		b, _ := json.Marshal(again)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two runs gave different records:\n%s\n%s", seed, a, b)
		}
		for ph, k := range s.replans {
			replans[ph] += k
		}
		recorded += rec.Replans
		retries += s.retries
		if s.failed {
			failed++
		}
		if s.resumed {
			resumed++
		}
	}
	t.Logf("re-plans %v, %d retries, %d failed workflows, %d resumed", replans, retries, failed, resumed)
	logged := 0
	for _, k := range replans {
		logged += k
	}
	if logged != recorded {
		t.Errorf("%d re-plans logged, %d counted by the final records", logged, recorded)
	}
	for _, ph := range []string{"drift", "overdue", "resume"} {
		if replans[ph] == 0 {
			t.Errorf("no %s re-plan in 1,000 workflows", ph)
		}
	}
	if replans["stall"] != 0 {
		t.Errorf("%d stall re-plans: a dispatch order went inconsistent", replans["stall"])
	}
	if retries == 0 || failed == 0 || resumed == 0 {
		t.Errorf("%d retries, %d failed and %d resumed workflows: every path must run", retries, failed, resumed)
	}
}

// FuzzRunCore turns fuzz bytes into a DAG, durations, failures and a cut
// point, and holds the run core to simulate's invariants.
func FuzzRunCore(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64+rng.Intn(512))
		rng.Read(b)
		f.Add(b)
	}
	e := simEngine(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{b: data}
		simulate(t, e, src, simWorkflow(src))
	})
}

// driftCore starts drift.yaml's shape in a core: prep done at 0.03 s, and
// the pass after it, which starts slow and a sibling on the processors the
// plan gave them. It returns the core, slow's processor and how many
// siblings the plan queued behind slow there.
func driftCore(t *testing.T) (c *runCore, slow, behind int) {
	t.Helper()
	wf, err := DecodeWorkflow([]byte(`name: drift
procs: 2
drift: 1.5
steps:
  - name: prep
    command: "true"
    cost: 0.03
  - name: slow
    command: "true"
    depends: [prep]
    costs: [0.04, 0.06]
  - name: fan1
    command: "true"
    depends: [prep]
    costs: [0.04, 0.06]
  - name: fan2
    command: "true"
    depends: [prep]
    costs: [0.04, 0.06]
  - name: fan3
    command: "true"
    depends: [prep]
    costs: [0.04, 0.06]
`))
	if err != nil {
		t.Fatal(err)
	}
	e := simEngine(t)
	rec, pr, order := simRecord(t, e, wf)
	c = newRunCore(e, rec, pr, order, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	c.pass(0)
	c.complete(0.03, 0, 0.03, nil)
	c.pass(0.03)
	if rec.Steps[1].State != StepRunning {
		t.Fatalf("slow is %s after prep, want running", rec.Steps[1].State)
	}
	slow = rec.Steps[1].Proc
	if behind = queuedOn(c, slow); behind == 0 {
		t.Fatalf("degenerate plan: nothing queues behind slow: %+v", rec.Steps)
	}
	c.reset()
	return c, slow, behind
}

// queuedOn counts the pending siblings on proc p.
func queuedOn(c *runCore, p int) int {
	k := 0
	for _, st := range c.rec.Steps[2:] {
		if st.State == StepPending && st.Proc == p {
			k++
		}
	}
	return k
}

// replanPhases lists the phases of the pass's workflow.replan events.
func replanPhases(c *runCore) []string {
	var out []string
	for _, ev := range c.events {
		if ev.Kind == obs.KindWorkflowReplan {
			out = append(out, ev.Phase)
		}
	}
	return out
}

// TestRunCoreOverdueMovesQueuedSiblings: the siblings on the other
// processor finish on time, and slow, estimated at 0.04 s, is still
// running at the tick 0.2 s in, past 1.5× its estimate. The overdue check
// re-plans before slow completes and moves a sibling queued behind it to
// the idle processor; the re-projection quiets the next tick.
func TestRunCoreOverdueMovesQueuedSiblings(t *testing.T) {
	c, slow, behind := driftCore(t)
	for ran := true; ran; {
		ran = false
		for i := 2; i < len(c.rec.Steps); i++ {
			if st := c.rec.Steps[i]; st.State == StepRunning {
				now := c.rel(st.StartedAt) + st.EstSeconds
				c.complete(now, i, st.EstSeconds, nil)
				c.pass(now)
				ran = true
			}
		}
	}
	if got := replanPhases(c); len(got) != 0 {
		t.Fatalf("re-plans while the siblings ran on time = %v, want none", got)
	}
	c.reset()
	c.overdue(0.2)
	if got := replanPhases(c); len(got) != 1 || got[0] != "overdue" {
		t.Fatalf("re-plans at the tick = %v, want [overdue]", got)
	}
	if now := queuedOn(c, slow); now >= behind {
		t.Errorf("%d siblings queued behind slow after the re-plan, %d before", now, behind)
	}
	c.reset()
	c.overdue(0.21)
	if got := replanPhases(c); len(got) != 0 {
		t.Errorf("re-plans right after the re-projection = %v, want none", got)
	}
}

// TestRunCoreDriftReplans: a step that completes at ten times its
// estimate re-plans the frontier, and one that completes on time does not.
func TestRunCoreDriftReplans(t *testing.T) {
	c, slow, _ := driftCore(t)
	other := -1
	for i, st := range c.rec.Steps {
		if st.State == StepRunning && st.Proc != slow {
			other = i
		}
	}
	if other < 0 {
		t.Fatalf("nothing runs beside slow: %+v", c.rec.Steps)
	}
	w := c.rec.Steps[other].EstSeconds
	c.complete(0.03+w, other, w, nil)
	if got := replanPhases(c); len(got) != 0 {
		t.Fatalf("re-plans after an on-time completion = %v, want none", got)
	}
	c.reset()
	c.complete(0.43, 1, 0.4, nil)
	if got := replanPhases(c); len(got) != 1 || got[0] != "drift" {
		t.Fatalf("re-plans after slow's 10× completion = %v, want [drift]", got)
	}
}

// TestRunCoreResumeReplans: a record cut while slow ran, with its running
// steps demoted as adopt demotes them, resumes with a resume re-plan that
// queues every pending step, and its first pass dispatches.
func TestRunCoreResumeReplans(t *testing.T) {
	c, _, _ := driftCore(t)
	rec := c.rec.clone()
	for i := range rec.Steps {
		if rec.Steps[i].State == StepRunning {
			rec.Steps[i].State = StepPending
		}
	}
	pr, _ := rec.Spec.Compile()
	r := newRunCore(c.e, rec, pr, nil, c.start.Add(time.Second))
	if got := replanPhases(r); len(got) != 1 || got[0] != "resume" {
		t.Fatalf("re-plans on resume = %v, want [resume]", got)
	}
	queued := 0
	for _, q := range r.order {
		queued += len(q)
	}
	if queued != len(rec.Steps)-1 {
		t.Fatalf("%d steps queued on resume, want %d", queued, len(rec.Steps)-1)
	}
	if _, _, over := r.pass(0); over || r.running == 0 {
		t.Fatalf("first pass after resume started nothing: %+v", rec.Steps)
	}
}

// TestRunCoreZeroCostParentFirst: b, declared first, depends on a
// zero-cost a, so the plan starts both at 0 on the one processor. The
// queue keeps placement order on that tie, so a heads it and the first
// pass starts a without a stall re-plan.
func TestRunCoreZeroCostParentFirst(t *testing.T) {
	wf, err := DecodeWorkflow([]byte(`name: zero
procs: 1
steps:
  - name: b
    command: "true"
    depends: [a]
    cost: 1
  - name: a
    command: "true"
    cost: 0
`))
	if err != nil {
		t.Fatal(err)
	}
	e := simEngine(t)
	rec, pr, order := simRecord(t, e, wf)
	c := newRunCore(e, rec, pr, order, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	if _, _, over := c.pass(0); over {
		t.Fatalf("the run ended at its first pass: %+v", rec.Steps)
	}
	if got := replanPhases(c); len(got) != 0 {
		t.Errorf("re-plans at the first pass = %v, want none (queue %v)", got, order)
	}
	if rec.Steps[1].State != StepRunning {
		t.Errorf("a is %s after the first pass, want running", rec.Steps[1].State)
	}
}
