package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hdlts/internal/durable"
)

// TestReplayMatchesLive drives a seeded random sequence of job
// transitions through a durable manager: submissions (fresh, coalesced
// and cache hits), claims, finishes (done or failed), cancels of queued,
// running and finished jobs, GC deletions, and the compactions the
// problems' bytes trigger. The test claims and finishes attempts itself,
// on a pool with no workers. After every flush, a copy of the store
// directory replays to jobs JSON-equal to the live table, and only a job's
// first line carries its problem.
func TestReplayMatchesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir, Pool: newTestPool(t, 0, 1024), TTL: time.Minute, Run: okRun(nil)})
	clock := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	m.mu.Lock()
	m.now = func() time.Time { return clock }
	m.mu.Unlock()
	tick := func(d time.Duration) {
		m.mu.Lock()
		clock = clock.Add(d)
		m.mu.Unlock()
	}

	// pick returns a random job in one of the given states, if any.
	pick := func(states ...State) (*Job, bool) {
		var in []*Job
		for _, j := range m.store.List(nil) {
			if slices.Contains(states, j.State) {
				in = append(in, j)
			}
		}
		if len(in) == 0 {
			return nil, false
		}
		return in[rng.Intn(len(in))].clone(), true
	}
	replay := &replayChecker{t: t, m: m, dir: dir, puts: map[string]bool{}}
	var hashes []string
	counts := map[string]int{}
	for op := 0; op < 300; op++ {
		tick(time.Duration(rng.Intn(10)) * time.Second)
		m.mu.Lock() // pick reads the table
		switch k := rng.Intn(11); {
		case k < 3 || len(hashes) == 0:
			m.mu.Unlock()
			hash := fmt.Sprintf("h%d", len(hashes))
			if len(hashes) > 0 && rng.Intn(3) == 0 {
				hash = hashes[rng.Intn(len(hashes))] // coalesces, hits the cache, or runs again
			} else {
				hashes = append(hashes, hash)
			}
			problem := fmt.Sprintf(`{"hash":%q,"pad":%q}`, hash, strings.Repeat("x", 2000+rng.Intn(8000)))
			if _, err := m.Submit("HDLTS", hash, json.RawMessage(problem)); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			counts["submit"]++
		case k < 6:
			j, ok := pick(Queued)
			m.mu.Unlock()
			if !ok {
				continue
			}
			// The first half of Manager.attempt.
			if _, _, _, ok := m.claimJob(j.ID); ok {
				m.store.Flush()
				counts["claim"]++
			}
		case k < 9:
			j, ok := pick(Running)
			m.mu.Unlock()
			if !ok {
				continue
			}
			// The second half of Manager.attempt.
			var err error
			if rng.Intn(4) == 0 {
				err = errors.New("solve failed")
			}
			m.finishJob(j.ID, json.RawMessage(fmt.Sprintf(`{"job":%q}`, j.ID)), err)
			m.store.Flush()
			m.wg.Done()
			counts["finish"]++
		case k == 9:
			j, ok := pick(Queued, Running, Done, Failed, Cancelled)
			m.mu.Unlock()
			if !ok {
				continue
			}
			if _, err := m.Cancel(j.ID); err != nil && !errors.Is(err, ErrFinished) {
				t.Fatalf("Cancel: %v", err)
			}
			counts["cancel"]++
		default:
			m.mu.Unlock()
			tick(time.Duration(rng.Intn(90)) * time.Second)
			m.gc()
			counts["gc"]++
		}
		if replay.check() {
			counts["compact"]++
		}
	}
	// Release what is still running, so Close does not wait on it.
	m.mu.Lock()
	running := m.store.List(func(j *Job) bool { return j.State == Running })
	m.mu.Unlock()
	for _, j := range running {
		m.finishJob(j.ID, json.RawMessage(`{}`), nil)
		m.store.Flush()
		m.wg.Done()
	}
	counts["expired"] = int(m.expired.Value())
	counts["coalesced"] = int(m.coalesced.Value())
	counts["cache hit"] = int(m.cacheHits.Value())
	for _, op := range []string{"submit", "coalesced", "cache hit", "claim", "finish", "cancel", "expired", "compact"} {
		if counts[op] == 0 {
			t.Errorf("the sequence has no %s: %v", op, counts)
		}
	}
}

// replayChecker compares a copy of a live store directory with the
// manager's table, and reads the lines its WAL gained since the last check.
type replayChecker struct {
	t    *testing.T
	m    *Manager
	dir  string
	seen []byte          // the WAL as of the last check
	snap []byte          // the snapshot as of the last check
	puts map[string]bool // jobs that have had their put line
}

// check opens a copy of the store and compares what it recovers with the
// live table, then reads the WAL's new lines: a job has one put line, and
// no patch carries the problem. It reports whether the store compacted
// since the last check.
func (c *replayChecker) check() (compacted bool) {
	t, dir := c.t, c.dir
	t.Helper()
	cp := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal.jsonl"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if name == "snapshot.json" {
			compacted = !bytes.Equal(b, c.snap)
			c.snap = b
		}
		if err := os.WriteFile(filepath.Join(cp, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	s, recovered, err := durable.Open[*Job](durable.Config{Dir: cp, Key: durable.JobKey}, &mu)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	s.Close()
	c.m.mu.Lock()
	live := c.m.store.List(nil)
	slices.Reverse(live)
	want, _ := json.Marshal(live)
	c.m.mu.Unlock()
	got, _ := json.Marshal(recovered)
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed jobs differ from the live table:\n got %s\nwant %s", got, want)
	}

	b, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
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
			Job map[string]json.RawMessage `json:"job"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("WAL line %.80s: %v", line, err)
		}
		switch env.Op {
		case "put":
			var id string
			json.Unmarshal(env.Job["id"], &id)
			if c.puts[id] {
				t.Errorf("a second put line for %s", id)
			}
			c.puts[id] = true
		case "patch":
			if _, ok := env.Job["problem"]; ok {
				t.Errorf("patch of %s carries the problem", env.ID)
			}
		}
	}
	return compacted
}
