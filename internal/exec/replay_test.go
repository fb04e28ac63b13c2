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
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hdlts/internal/obs"
)

// gateRunner holds every step attempt until the test releases it with an
// outcome, so the test decides when each run-loop pass happens.
type gateRunner struct {
	started chan string // step names, as their attempts start

	mu   sync.Mutex
	open map[string]chan error
}

func newGateRunner() *gateRunner {
	return &gateRunner{started: make(chan string, 1024), open: make(map[string]chan error)}
}

func (g *gateRunner) run(ctx context.Context, step Step) error {
	ch := make(chan error, 1)
	g.mu.Lock()
	g.open[step.Name] = ch
	g.mu.Unlock()
	g.started <- step.Name
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		g.mu.Lock()
		delete(g.open, step.Name)
		g.mu.Unlock()
		return ctx.Err()
	}
}

// release ends the held attempt of step with err, reporting false if the
// step holds none (its workflow was cancelled).
func (g *gateRunner) release(step string, err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch, ok := g.open[step]
	delete(g.open, step)
	if ok {
		ch <- err
	}
	return ok
}

// replayWorkflow draws a DAG of 6–15 steps over 2–3 processors. Step
// names carry the workflow's index, so one runner can hold steps of
// several workflows. Most workflows drift-re-plan on every completion,
// half the steps may retry once, and costs vary so re-plans move steps.
// Commands are padded comments, so the store's put lines soon add up to
// a compaction.
func replayWorkflow(rng *rand.Rand, w int) *Workflow {
	wf := &Workflow{Name: fmt.Sprintf("replay%d", w), Procs: 2 + rng.Intn(2), Drift: 1.5}
	if rng.Intn(4) == 0 {
		wf.Drift = 1e9
	}
	n := 6 + rng.Intn(10)
	for i := 0; i < n; i++ {
		st := Step{Name: fmt.Sprintf("w%ds%d", w, i), Retries: rng.Intn(2),
			Command: "true # " + strings.Repeat("x", 500+rng.Intn(1500))}
		for p := 0; p < wf.Procs; p++ {
			st.Costs = append(st.Costs, float64(1+rng.Intn(20))/10)
		}
		for j := 0; j < i; j++ {
			if rng.Intn(3) == 0 {
				st.Depends = append(st.Depends, fmt.Sprintf("w%ds%d", w, j))
			}
		}
		wf.Steps = append(wf.Steps, st)
	}
	return wf
}

// TestReplayMatchesLive drives a seeded random sequence of workflow
// transitions through a durable engine: submissions, step starts,
// completions, retries, failures, drift re-plans, cancels, and the
// compactions the growing WAL triggers. After every flush, a copy of the
// store directory replays to records JSON-equal to the live table, and
// only a workflow's first line carries its spec.
func TestReplayMatchesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	hub := obs.NewHub(obs.NewRegistry(), 0)
	sub := hub.Subscribe(obs.StreamFilter{Kinds: map[string]bool{
		obs.KindStepRun: true, obs.KindStepDone: true, obs.KindStepFail: true,
		obs.KindWorkflowReplan: true, obs.KindWorkflowDone: true,
	}}, 4096)
	defer sub.Close()
	gate := newGateRunner()
	e := testEngine(t, Config{Dir: dir, Runner: gate.run, Stream: hub})

	// await consumes stream events until one matches: every pass publishes
	// its events after its flush, so a pass's first event means its line
	// is durable.
	await := func(what string, match func(obs.StreamEvent) bool) {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for {
			select {
			case ev := <-sub.C():
				if match(ev) {
					return
				}
			case <-timeout:
				t.Fatalf("no stream event for %s", what)
			}
		}
	}
	wal := &walChecker{t: t, dir: dir, puts: map[string]bool{}}
	var running []string // started attempts the gate holds
	var ids []string
	submitted := 0
	counts := map[string]int{}
	for op := 0; op < 150; op++ {
		for drained := false; !drained; {
			select {
			case name := <-gate.started:
				running = append(running, name)
			default:
				drained = true
			}
		}
		active := 0
		for _, r := range e.List() {
			if !r.State.Terminal() {
				active++
			}
		}
		switch k := rng.Intn(20); {
		case active == 0 || (k == 0 && active < 4):
			wf := replayWorkflow(rng, submitted)
			submitted++
			rec, err := e.Submit(context.Background(), wf)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			ids = append(ids, rec.ID)
			counts["submit"]++
			await("the first pass of "+rec.ID, func(ev obs.StreamEvent) bool { return ev.Workflow == rec.ID })
		case k == 2 && rng.Intn(2) == 0 && len(ids) > 0:
			id := ids[rng.Intn(len(ids))]
			if _, err := e.Cancel(id); err != nil && !errors.Is(err, ErrFinished) {
				t.Fatalf("Cancel: %v", err)
			}
			counts["cancel"]++
		case len(running) > 0:
			i := rng.Intn(len(running))
			name := running[i]
			running = slices.Delete(running, i, i+1)
			var err error
			outcome := "step done"
			if rng.Intn(10) == 0 {
				err, outcome = errFirstAttempt, "step failed"
			}
			if !gate.release(name, err) {
				continue // cancelled with its workflow
			}
			counts[outcome]++
			await("the completion of "+name, func(ev obs.StreamEvent) bool {
				return ev.Step == name && (ev.Kind == obs.KindStepDone || ev.Kind == obs.KindStepFail)
			})
		default:
			select {
			case name := <-gate.started:
				running = append(running, name)
			case <-time.After(10 * time.Second):
				t.Fatal("no step attempt started")
			}
			continue
		}
		if wal.check(e.List) {
			counts["compact"]++
		}
	}
	for _, r := range e.List() {
		counts["re-plan"] += r.Replans
	}
	for _, op := range []string{"submit", "step done", "step failed", "re-plan", "cancel", "compact"} {
		if counts[op] == 0 {
			t.Errorf("the sequence has no %s: %v", op, counts)
		}
	}
}

// walChecker reopens copies of a live store directory and reads the lines
// its WAL gained since the last check.
type walChecker struct {
	t    *testing.T
	dir  string
	seen []byte          // the WAL as of the last check
	snap []byte          // the snapshot as of the last check
	puts map[string]bool // IDs that have had their put line
}

// check replays a copy of the store and compares it with the engine's
// records, as list reads them, then checks the WAL's new lines: only a
// workflow's first line is a put, and no patch carries a spec. It reports
// whether the store compacted since the last check.
//
// The engine is never still: an overdue re-plan may change a record, or
// flush its change, between the read of the table and the copy of the
// store. So a table read and the copy taken after it are compared until a
// pair agrees byte for byte, and the check fails when none does within
// five seconds.
func (c *walChecker) check(list func() []*Record) (compacted bool) {
	c.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		live := list()
		recs, err := openCopy(c.dir)
		sort.Slice(live, func(i, k int) bool { return live[i].Seq < live[k].Seq })
		want, _ := json.Marshal(live)
		got, _ := json.Marshal(recs)
		if err == nil && bytes.Equal(got, want) {
			break
		}
		if time.Now().After(deadline) {
			if err != nil {
				c.t.Fatalf("replay: %v", err)
			}
			c.t.Fatalf("replayed records differ from the live table:\n got %s\nwant %s", got, want)
		}
	}
	snap, err := os.ReadFile(filepath.Join(c.dir, "snapshot.json"))
	if err != nil && !os.IsNotExist(err) {
		c.t.Fatal(err)
	}
	compacted = !bytes.Equal(snap, c.snap)
	c.snap = snap
	b, err := os.ReadFile(filepath.Join(c.dir, "wal.jsonl"))
	if err != nil {
		c.t.Fatal(err)
	}
	fresh := b
	if bytes.HasPrefix(b, c.seen) {
		fresh = b[len(c.seen):] // else a compaction restarted the WAL
	}
	c.seen = b
	for _, line := range bytes.SplitAfter(fresh, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var env struct {
			Op  string                     `json:"op"`
			ID  string                     `json:"id"`
			Rec map[string]json.RawMessage `json:"rec"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			c.t.Fatalf("WAL line %.80s: %v", line, err)
		}
		switch env.Op {
		case "put":
			id := string(env.Rec["id"])
			if c.puts[id] {
				c.t.Errorf("a second put line for %s", id)
			}
			c.puts[id] = true
		case "patch":
			if _, ok := env.Rec["spec"]; ok {
				c.t.Errorf("patch of %s carries the spec", env.ID)
			}
		}
	}
	return compacted
}
