package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hdlts/internal/durable"
	"hdlts/internal/obs"
)

// TestEngineCommitsOncePerPass: with no drift and no retries, an n-step
// workflow commits once at submission, once per run-loop pass, and once
// at the end — one fsync per completion, not one per transition.
func TestEngineCommitsOncePerPass(t *testing.T) {
	const n = 12
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Dir: t.TempDir(), Metrics: reg,
		Runner: func(context.Context, Step) error { return nil }})
	// A drift threshold this wide never re-plans an instant step.
	wf := &Workflow{Procs: 2, Drift: 1e9}
	for i := 0; i < n; i++ {
		st := Step{Name: fmt.Sprintf("s%d", i), Command: "true", Costs: []float64{0.01}}
		if i >= 2 {
			st.Depends = []string{fmt.Sprintf("s%d", i-2)}
		}
		wf.Steps = append(wf.Steps, st)
	}
	rec, err := e.Submit(context.Background(), wf)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if final := waitDone(t, e, rec.ID); final.State != Done || final.Replans != 0 {
		t.Fatalf("final = %s with %d re-plans, want done with none", final.State, final.Replans)
	}
	got := reg.Histogram(metricWorkflowWALFsync).Count()
	if got == 0 || got > n+3 {
		t.Errorf("WAL fsyncs for %d steps = %d, want 1..%d", n, got, n+3)
	}
}

// errFirstAttempt is the injected failure of a step's first attempt.
var errFirstAttempt = errors.New("injected first-attempt failure")

// crashRunner is the recording runner of the crash-anywhere harness. It
// counts launches per step and fails the steps in failFirst on their first
// attempt overall. Given the live store directory, it also checks the
// write-ahead rule at every launch against what is on disk: the step's
// running line, with this attempt's count and every parent done, is
// durable before its command starts.
type crashRunner struct {
	t         *testing.T
	dir       string // the live store directory; empty skips the disk check
	parents   [][]int
	failFirst map[string]bool
	prior     map[string]int // attempts consumed before this life

	mu       sync.Mutex
	launches map[string]int
}

func newCrashRunner(t *testing.T, dir string, wf *Workflow, failFirst map[string]bool, prior map[string]int) *crashRunner {
	index := make(map[string]int, len(wf.Steps))
	for i, st := range wf.Steps {
		index[st.Name] = i
	}
	parents := make([][]int, len(wf.Steps))
	for i, st := range wf.Steps {
		for _, d := range st.Depends {
			parents[i] = append(parents[i], index[d])
		}
	}
	return &crashRunner{t: t, dir: dir, parents: parents,
		failFirst: failFirst, prior: prior, launches: make(map[string]int)}
}

func (cr *crashRunner) run(_ context.Context, step Step) error {
	cr.mu.Lock()
	cr.launches[step.Name]++
	attempt := cr.prior[step.Name] + cr.launches[step.Name]
	cr.mu.Unlock()
	if cr.dir != "" {
		if err := cr.checkWriteAhead(step.Name, attempt); err != nil {
			cr.t.Error(err)
		}
	}
	if cr.failFirst[step.Name] && attempt == 1 {
		return errFirstAttempt
	}
	return nil
}

// checkWriteAhead opens a copy of the store and checks that step is
// durably running at attempt with every parent done.
func (cr *crashRunner) checkWriteAhead(step string, attempt int) error {
	recs, err := openCopy(cr.dir)
	if err != nil {
		return err
	}
	if len(recs) != 1 {
		return fmt.Errorf("launch of %s: %d records on disk, want 1", step, len(recs))
	}
	for i, st := range recs[0].Steps {
		if st.Name != step {
			continue
		}
		if st.State != StepRunning || st.Attempts != attempt {
			return fmt.Errorf("launch %d of %s: on disk it is %s at attempt %d", attempt, step, st.State, st.Attempts)
		}
		for _, a := range cr.parents[i] {
			if ps := recs[0].Steps[a]; ps.State != StepDone {
				return fmt.Errorf("launch of %s: parent %s is %s on disk", step, ps.Name, ps.State)
			}
		}
		return nil
	}
	return fmt.Errorf("launch of %s: step not on disk", step)
}

func (cr *crashRunner) count(step string) int {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.launches[step]
}

// openCopy recovers the records of a copy of the store in dir, leaving
// dir itself untouched (recovery cuts torn tails).
func openCopy(dir string) ([]*Record, error) {
	cp, err := os.MkdirTemp(filepath.Dir(dir), "copy-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cp)
	for _, name := range []string{"snapshot.json", "wal.jsonl"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) && name == "snapshot.json" {
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(cp, name), b, 0o644); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	s, recs, err := durable.Open[*Record](durable.Config{Dir: cp, Key: durable.RecKey}, &mu)
	if err != nil {
		return nil, err
	}
	return recs, s.Close()
}

// walLines splits a WAL into its newline-terminated lines and rebuilds
// the record each one leaves behind: a put's record, or a patch decoded
// onto a copy of the record before it. It stops at a torn tail.
func walLines(t *testing.T, b []byte) (lines [][]byte, recs []*Record) {
	t.Helper()
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return lines, recs
		}
		var env struct {
			Op  string          `json:"op"`
			Rec json.RawMessage `json:"rec"`
		}
		if err := json.Unmarshal(b[:i], &env); err != nil || env.Rec == nil {
			t.Fatalf("WAL line %d is not a record line: %.80s", len(lines)+1, b[:i])
		}
		var r *Record
		switch {
		case env.Op == "put":
			r = new(Record)
		case env.Op == "patch" && len(recs) > 0:
			r = recs[len(recs)-1].clone()
		default:
			t.Fatalf("WAL line %d is not a record put or patch: %.80s", len(lines)+1, b[:i])
		}
		if err := json.Unmarshal(env.Rec, r); err != nil {
			t.Fatalf("WAL line %d: %v", len(lines)+1, err)
		}
		lines = append(lines, b[:i+1])
		recs = append(recs, r)
		b = b[i+1:]
	}
}

// crashWorkflow draws a random DAG of 6–12 steps over 2–3 processors;
// about a quarter of the steps fail their first attempt and retry once.
func crashWorkflow(rng *rand.Rand, w int) (*Workflow, map[string]bool) {
	wf := &Workflow{Name: fmt.Sprintf("crash%d", w), Procs: 2 + rng.Intn(2)}
	failFirst := map[string]bool{}
	n := 6 + rng.Intn(7)
	for i := 0; i < n; i++ {
		st := Step{Name: fmt.Sprintf("s%d", i), Command: "true"}
		for p := 0; p < wf.Procs; p++ {
			st.Costs = append(st.Costs, float64(5+rng.Intn(10))/100)
		}
		for j := 0; j < i; j++ {
			if rng.Intn(3) == 0 {
				st.Depends = append(st.Depends, fmt.Sprintf("s%d", j))
			}
		}
		if rng.Intn(4) == 0 {
			st.Retries = 1
			failFirst[st.Name] = true
		}
		wf.Steps = append(wf.Steps, st)
	}
	return wf, failFirst
}

// TestCrashAnywhere is the executor's crash oracle. Every flush appends
// whole lines and replay stops at the first torn one, so the states a
// crash can leave behind are exactly the byte prefixes of the final WAL.
// Each seeded workflow runs once with the write-ahead check at every
// launch; then every line boundary of its WAL, and one cut inside the
// next line, is reopened in a fresh engine and run to the end. Across
// the prefix and the new life: every step finishes exactly once, its
// attempts are the prefix's plus the new launches, no step is running or
// done before its parents are done, a step's processor does not change
// between its running and done lines, and the trace ID survives.
func TestCrashAnywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < 20; w++ {
		wf, failFirst := crashWorkflow(rng, w)
		t.Run(wf.Name, func(t *testing.T) {
			t.Parallel()
			c := &crashCase{root: t.TempDir(), wf: wf, failFirst: failFirst, traceID: "trace-" + wf.Name}
			dir := filepath.Join(c.root, "live")
			cr := newCrashRunner(t, dir, wf, failFirst, nil)
			e := testEngine(t, Config{Dir: dir, Runner: cr.run})
			rec, err := e.Submit(obs.WithTraceID(context.Background(), c.traceID), wf)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			final := waitDone(t, e, rec.ID)
			if final.State != Done {
				t.Fatalf("first life finished %s (%s)", final.State, final.Error)
			}
			for _, st := range final.Steps {
				if st.Attempts != cr.count(st.Name) {
					t.Errorf("%s: %d attempts for %d launches", st.Name, st.Attempts, cr.count(st.Name))
				}
			}
			wal := closeAndRead(t, e, dir)
			// A compaction would fold history into a snapshot the
			// prefixes below do not see; runs stay under its trigger.
			if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err == nil {
				t.Fatal("the store compacted: the WAL no longer holds the whole run")
			}
			lines, recs := walLines(t, wal)
			off := 0
			for k := 0; k <= len(lines); k++ {
				c.life(t, recs[:k], wal[:off], nil)
				if k < len(lines) {
					c.life(t, recs[:k], wal[:off], lines[k][:len(lines[k])/2])
					off += len(lines[k])
				}
			}
		})
	}
}

// crashCase is one workflow of the crash-anywhere harness.
type crashCase struct {
	root      string
	wf        *Workflow
	failFirst map[string]bool
	traceID   string
}

// life reopens a store whose WAL is whole — the lines that hold the
// records past — followed by a torn fragment of the next line, runs what
// it recovers to the end, and checks the prefix and the new life together.
func (c *crashCase) life(t *testing.T, past []*Record, whole, torn []byte) {
	t.Helper()
	at := fmt.Sprintf("after %d lines", len(past))
	if torn != nil {
		at = fmt.Sprintf("inside line %d", len(past)+1)
	}
	dir, err := os.MkdirTemp(c.root, "life-")
	if err != nil {
		t.Fatal(err)
	}
	prefix := append(whole[:len(whole):len(whole)], torn...)
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	prior := map[string]int{}
	if len(past) > 0 {
		for _, st := range past[len(past)-1].Steps {
			prior[st.Name] = st.Attempts
		}
	}
	cr := newCrashRunner(t, "", c.wf, c.failFirst, prior)
	e := testEngine(t, Config{Dir: dir, Runner: cr.run})
	if len(past) == 0 {
		if recs := e.List(); len(recs) != 0 {
			t.Errorf("%s: no whole line, but %d workflows recovered", at, len(recs))
		}
		return
	}
	final := waitDone(t, e, past[0].ID)
	if final.State != Done {
		t.Fatalf("%s: finished %s (%s)", at, final.State, final.Error)
	}
	if final.TraceID != c.traceID {
		t.Errorf("%s: trace ID %q, want %q", at, final.TraceID, c.traceID)
	}
	for _, st := range final.Steps {
		if want := prior[st.Name] + cr.count(st.Name); st.Attempts != want {
			t.Errorf("%s: %s has %d attempts, want %d prior + %d launched", at, st.Name, st.Attempts, prior[st.Name], cr.count(st.Name))
		}
	}
	// Recovery cut the torn fragment, so the new life's lines follow the
	// whole ones.
	_, lived := walLines(t, closeAndRead(t, e, dir)[len(whole):])
	checkHistory(t, at, c.wf, cr.parents, append(past[:len(past):len(past)], lived...))
}

// closeAndRead closes e and returns the WAL it left in dir.
func closeAndRead(t *testing.T, e *Engine, dir string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return wal
}

// checkHistory walks every durable state of one workflow in WAL order.
func checkHistory(t *testing.T, at string, wf *Workflow, parents [][]int, history []*Record) {
	t.Helper()
	n := len(wf.Steps)
	doneAt := make([]int, n) // transitions into done
	runAttempt := make([]int, n)
	runProc := make([]int, n)
	for li, r := range history {
		for i, st := range r.Steps {
			switch st.State {
			case StepRunning, StepDone:
				for _, a := range parents[i] {
					if r.Steps[a].State != StepDone {
						t.Errorf("%s, line %d: %s is %s before parent %s is done", at, li+1, st.Name, st.State, r.Steps[a].Name)
					}
				}
			}
			switch st.State {
			case StepRunning:
				if runAttempt[i] != st.Attempts {
					runAttempt[i], runProc[i] = st.Attempts, st.Proc
				} else if st.Proc != runProc[i] {
					t.Errorf("%s, line %d: running %s moved from proc %d to %d", at, li+1, st.Name, runProc[i], st.Proc)
				}
			case StepDone:
				if li == 0 || history[li-1].Steps[i].State != StepDone {
					doneAt[i]++
					if runAttempt[i] != st.Attempts || st.Proc != runProc[i] {
						t.Errorf("%s, line %d: %s done at attempt %d on proc %d, last durably running at attempt %d on proc %d",
							at, li+1, st.Name, st.Attempts, st.Proc, runAttempt[i], runProc[i])
					}
				}
			default:
				if li > 0 && history[li-1].Steps[i].State == StepDone {
					t.Errorf("%s, line %d: done step %s went back to %s", at, li+1, st.Name, st.State)
				}
			}
		}
	}
	for i, c := range doneAt {
		if c != 1 {
			t.Errorf("%s: %s finished %d times, want once", at, wf.Steps[i].Name, c)
		}
	}
}
