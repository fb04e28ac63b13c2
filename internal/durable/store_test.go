package durable_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hdlts/internal/durable"
	"hdlts/internal/exec"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
)

// kind is one record type the durable core stores: its WAL payload key,
// a constructor for matrix records, and a reader for the trace ID the
// matrix checks survives replay.
type kind[R durable.Record] struct {
	key   string
	make  func(id string, seq uint64, st durable.State, traceID string) R
	trace func(R) string
}

var jobKind = kind[*jobs.Job]{
	key: durable.JobKey,
	make: func(id string, seq uint64, st durable.State, traceID string) *jobs.Job {
		return &jobs.Job{ID: id, Algorithm: "HDLTS", Hash: "h-" + id, TraceID: traceID,
			Problem: json.RawMessage(`{"tasks":3}`), State: st, MaxAttempts: 3,
			Result: json.RawMessage(`{"makespan":73}`), Seq: seq}
	},
	trace: func(j *jobs.Job) string { return j.TraceID },
}

var workflowKind = kind[*exec.Record]{
	key: durable.RecKey,
	make: func(id string, seq uint64, st durable.State, traceID string) *exec.Record {
		spec := &exec.Workflow{Name: id, Procs: 1, Steps: []exec.Step{{Name: "a", Command: "true", Costs: []float64{1}}}}
		return &exec.Record{ID: id, Name: id, TraceID: traceID, Spec: spec, State: st,
			Steps: []exec.StepStatus{{Name: "a", State: exec.StepDone, EstSeconds: 1}}, Seq: seq}
	},
	trace: func(r *exec.Record) string { return r.TraceID },
}

// store is one open Store plus the table lock it runs under.
type store[R durable.Record] struct {
	mu sync.Mutex
	s  *durable.Store[R]
}

// recordPtr is durable.Open's constraint: R points to T, which replay
// allocates.
type recordPtr[T any] interface {
	*T
	durable.Record
}

func openStore[R recordPtr[T], T any](t *testing.T, dir, key string) (*store[R], []R) {
	t.Helper()
	st := &store[R]{}
	s, recovered, err := durable.Open[R](durable.Config{Dir: dir, Key: key}, &st.mu)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st.s = s
	return st, recovered
}

// put commits r the way an owner does: stage under the lock, flush after.
func (st *store[R]) put(rs ...R) {
	st.mu.Lock()
	for _, r := range rs {
		st.s.Put(r)
	}
	st.mu.Unlock()
	st.s.Flush()
}

func (st *store[R]) del(id string) {
	st.mu.Lock()
	st.s.Delete(id)
	st.mu.Unlock()
	st.s.Flush()
}

func (st *store[R]) nextSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.s.NextSeq()
}

func (st *store[R]) close(t *testing.T) {
	t.Helper()
	if err := st.s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func ids[R durable.Record](recs []R) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.RecordID()
	}
	return out
}

// sameRecord reports whether two records encode identically.
func sameRecord(t *testing.T, got, want any) bool {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(g, w)
}

// TestRecoveryMatrix runs the crash-recovery contract once per record
// type through the shared core: a torn final line, snapshot compaction and
// reload, deletions surviving replay, Seq monotonic across restart, and
// the trace ID kept.
func TestRecoveryMatrix(t *testing.T) {
	t.Run("job", func(t *testing.T) { runMatrix(t, jobKind) })
	t.Run("workflow", func(t *testing.T) { runMatrix(t, workflowKind) })
}

func runMatrix[R recordPtr[T], T any](t *testing.T, k kind[R]) {
	t.Run("torn_tail", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := openStore[R](t, dir, k.key)
		good := k.make("good", st.nextSeq(), durable.Done, "")
		st.put(good)
		st.close(t)
		// SIGKILL mid-append leaves a cut-off final line behind.
		f, err := os.OpenFile(filepath.Join(dir, "wal.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(`{"op":"put","` + k.key + `":{"id":"torn","sta`)
		f.Close()

		st, recovered := openStore[R](t, dir, k.key)
		if got := ids(recovered); !slices.Equal(got, []string{"good"}) || !sameRecord(t, recovered[0], good) {
			t.Fatalf("recovered %v, want only the intact record, unchanged", got)
		}
		// The next append must start on a fresh line, not extend the torn one.
		st.put(k.make("after", st.nextSeq(), durable.Done, ""))
		st.close(t)
		_, recovered = openStore[R](t, dir, k.key)
		if got := ids(recovered); !slices.Equal(got, []string{"good", "after"}) {
			t.Errorf("after a torn tail and one more append, recovered %v, want [good after]", got)
		}
	})

	t.Run("mid_file_damage", func(t *testing.T) {
		dir := t.TempDir()
		walPath := filepath.Join(dir, "wal.jsonl")
		st, _ := openStore[R](t, dir, k.key)
		st.put(k.make("a", st.nextSeq(), durable.Done, ""))
		// A fragment with no newline, then two acknowledged records: the
		// first of them extends the fragment into one undecodable line.
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(`{"op":"put","` + k.key + `":{"id":"torn`)
		f.Close()
		st.put(k.make("b", st.nextSeq(), durable.Done, ""))
		st.put(k.make("c", st.nextSeq(), durable.Done, ""))
		st.close(t)
		before, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}

		var mu sync.Mutex
		s, recovered, err := durable.Open[R](durable.Config{Dir: dir, Key: k.key}, &mu)
		if err == nil {
			s.Close()
			t.Fatalf("Open recovered %v from a WAL damaged before two acknowledged records, want an error", ids(recovered))
		}
		if want := fmt.Sprintf("byte offset %d ", fi.Size()); !strings.Contains(err.Error(), want) {
			t.Errorf("Open error %q does not name %q", err, want)
		}
		if after, _ := os.ReadFile(walPath); !bytes.Equal(after, before) {
			t.Errorf("refused Open changed the WAL from %d to %d bytes", len(before), len(after))
		}
	})

	t.Run("compaction_reload", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := openStore[R](t, dir, k.key)
		var want []string
		var recs []R
		for i := 0; i < 8; i++ {
			id := string(rune('a' + i))
			r := k.make(id, st.nextSeq(), durable.Done, "")
			recs = append(recs, r)
			want = append(want, id)
			st.put(r)
		}
		// Enough transitions in one flush outgrow the live set: the flush
		// compacts, and reload reads snapshot plus post-snapshot WAL.
		st.mu.Lock()
		for i := 0; i < 300; i++ {
			st.s.Put(recs[i%4])
		}
		st.mu.Unlock()
		st.s.Flush()
		if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
			t.Fatalf("no snapshot after the WAL outgrew the live set: %v", err)
		}
		if b, _ := os.ReadFile(filepath.Join(dir, "wal.jsonl")); len(b) != 0 {
			t.Fatalf("WAL not restarted by compaction: %d bytes", len(b))
		}
		for _, r := range recs[4:] {
			st.put(r)
		}
		st.close(t)
		_, recovered := openStore[R](t, dir, k.key)
		if got := ids(recovered); !slices.Equal(got, want) {
			t.Fatalf("recovered %v, want %v in Seq order", got, want)
		}
		for i, r := range recovered {
			if !sameRecord(t, r, recs[i]) {
				t.Errorf("record %s changed across compaction and reload", r.RecordID())
			}
		}
	})

	t.Run("del_survives_replay", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := openStore[R](t, dir, k.key)
		st.put(k.make("old", st.nextSeq(), durable.Done, ""), k.make("kept", st.nextSeq(), durable.Done, ""),
			k.make("new", st.nextSeq(), durable.Done, ""))
		if err := st.s.Compact(); err != nil {
			t.Fatal(err)
		}
		st.del("old") // deletion of a snapshotted record, in the WAL
		st.put(k.make("gone", st.nextSeq(), durable.Done, ""))
		st.del("gone") // put and deletion both in the WAL
		st.close(t)
		st, recovered := openStore[R](t, dir, k.key)
		if got := ids(recovered); !slices.Equal(got, []string{"kept", "new"}) {
			t.Errorf("recovered %v, want the deleted records gone", got)
		}
		st.close(t)
	})

	t.Run("seq_monotonic", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := openStore[R](t, dir, k.key)
		for _, id := range []string{"x", "y", "z"} {
			st.put(k.make(id, st.nextSeq(), durable.Queued, ""))
		}
		st.close(t)
		st, recovered := openStore[R](t, dir, k.key)
		for i, r := range recovered {
			if r.RecordSeq() != uint64(i) {
				t.Errorf("recovered[%d] has seq %d", i, r.RecordSeq())
			}
		}
		if n := st.nextSeq(); n != 3 {
			t.Errorf("first seq after restart = %d, want 3", n)
		}
		st.close(t)
	})

	t.Run("trace_id_kept", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := openStore[R](t, dir, k.key)
		st.put(k.make("traced", st.nextSeq(), durable.Running, "trace-cafe01"))
		st.close(t)
		st, recovered := openStore[R](t, dir, k.key)
		if len(recovered) != 1 || k.trace(recovered[0]) != "trace-cafe01" {
			t.Errorf("trace ID lost across replay: %v", ids(recovered))
		}
		st.close(t)
	})
}

// TestReplayRefusesDamagedRecords: store files that parse but hold a
// record the table cannot key or a state outside the lifecycle are an
// error from Open, never a half-adopted table.
func TestReplayRefusesDamagedRecords(t *testing.T) {
	cases := []struct {
		name, snapshot, wal string
	}{
		{"null snapshot record", `[null]`, ``},
		{"snapshot record without id", `[{"state":"done"}]`, ``},
		{"unknown state in snapshot", `[{"id":"x","state":"paused"}]`, ``},
		{"unknown state in wal", ``, `{"op":"put","job":{"id":"x","state":"paused"}}` + "\n" +
			`{"op":"put","rec":{"id":"x","state":"paused"}}` + "\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := writeStore(t, c.snapshot, c.wal)
			var mu sync.Mutex
			if _, _, err := durable.Open[*jobs.Job](durable.Config{Dir: dir, Key: durable.JobKey}, &mu); err == nil {
				t.Error("job store opened")
			}
			if _, _, err := durable.Open[*exec.Record](durable.Config{Dir: dir, Key: durable.RecKey}, &mu); err == nil {
				t.Error("workflow store opened")
			}
		})
	}
}

// writeStore lays out a store directory with the given snapshot (omitted
// when empty) and WAL bytes.
func writeStore(t testing.TB, snapshot, wal string) string {
	t.Helper()
	dir := t.TempDir()
	if snapshot != "" {
		if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(snapshot), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// copyStore copies one of the parent-code fixture stores into a scratch
// directory, so opening it may rewrite files.
func copyStore(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "parent", name)
	dir := t.TempDir()
	for _, f := range []string{"snapshot.json", "wal.jsonl"} {
		b, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// golden reads a fixture's recorded answers, compacted for comparison
// with json.Marshal output.
func golden(t *testing.T, name string) map[string]json.RawMessage {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "parent", name+".golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]json.RawMessage
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	for k, v := range g {
		var buf bytes.Buffer
		if err := json.Compact(&buf, v); err != nil {
			t.Fatal(err)
		}
		g[k] = buf.Bytes()
	}
	return g
}

func sameJSON(t *testing.T, what string, got any, want json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Errorf("%s differs from the parent code's answer:\n got %s\nwant %s", what, b, want)
	}
}

// TestParentStoresReplay: stores written by the job manager and workflow
// engine before the shared core existed replay to the same Get and List
// answers the old code gave.
func TestParentStoresReplay(t *testing.T) {
	t.Run("jobs", func(t *testing.T) {
		g := golden(t, "jobs")
		m, err := jobs.Open(jobs.Config{Dir: copyStore(t, "jobs"),
			TTL: 100 * 365 * 24 * time.Hour, GCInterval: time.Hour, Metrics: obs.NewRegistry(), Run: refuseRun})
		if err != nil {
			t.Fatal(err)
		}
		defer closeManager(t, m)
		list, _ := m.List("", 0, 0)
		sameJSON(t, "List", list, g["list"])
		var gets []*jobs.Job
		for _, j := range list {
			got, err := m.Get(j.ID)
			if err != nil {
				t.Fatal(err)
			}
			gets = append(gets, got)
		}
		slices.Reverse(gets) // the golden Get answers are in submission order
		sameJSON(t, "Get", gets, g["get"])
		var deleted string
		json.Unmarshal(g["deleted"], &deleted)
		if _, err := m.Get(deleted); err != jobs.ErrNotFound {
			t.Errorf("GC-deleted job %s: %v, want ErrNotFound", deleted, err)
		}
	})
	t.Run("workflows", func(t *testing.T) {
		g := golden(t, "workflows")
		e, err := exec.Open(exec.Config{Dir: copyStore(t, "workflows"), Metrics: obs.NewRegistry(), Runner: refuseStep})
		if err != nil {
			t.Fatal(err)
		}
		defer closeEngine(t, e)
		sameJSON(t, "List", e.List(), g["list"])
	})
}

// TestParentLinesReencode: the shared core writes byte-identical WAL lines
// and snapshots for the transitions the parent code recorded.
func TestParentLinesReencode(t *testing.T) {
	t.Run("jobs", func(t *testing.T) { reencode[*jobs.Job](t, "jobs", durable.JobKey) })
	t.Run("workflows", func(t *testing.T) { reencode[*exec.Record](t, "workflows", durable.RecKey) })
}

func reencode[R recordPtr[T], T any](t *testing.T, name, key string) {
	src := filepath.Join("testdata", "parent", name)
	parentWAL, err := os.ReadFile(filepath.Join(src, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, _ := openStore[R](t, dir, key)
	for _, line := range bytes.SplitAfter(parentWAL, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var env struct {
			Op  string `json:"op"`
			Job R      `json:"job"`
			Rec R      `json:"rec"`
			ID  string `json:"id"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("parent WAL line: %v", err)
		}
		switch {
		case env.Op == "del":
			st.del(env.ID)
		case key == durable.JobKey:
			st.put(env.Job)
		default:
			st.put(env.Rec)
		}
	}
	st.close(t)
	if got, _ := os.ReadFile(filepath.Join(dir, "wal.jsonl")); !bytes.Equal(got, parentWAL) {
		t.Errorf("WAL lines differ from the parent code's:\n got %s\nwant %s", got, parentWAL)
	}

	parentSnap, err := os.ReadFile(filepath.Join(src, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir = writeStore(t, string(parentSnap), "")
	st, _ = openStore[R](t, dir, key)
	if err := st.s.Compact(); err != nil {
		t.Fatal(err)
	}
	st.close(t)
	if got, _ := os.ReadFile(filepath.Join(dir, "snapshot.json")); !bytes.Equal(got, parentSnap) {
		t.Errorf("snapshot differs from the parent code's:\n got %s\nwant %s", got, parentSnap)
	}
}
