package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hdlts/internal/dag"
	"hdlts/internal/gen"
	"hdlts/internal/jobs"
	"hdlts/internal/platform"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
)

// TestCanonicalizeMatchesCanonicalHash: admission's one-pass render gives
// the compact form of the canonical bytes and CanonicalHash's address,
// on Fig. 1 and problems with awkward names and non-uniform bandwidth.
func TestCanonicalizeMatchesCanonicalHash(t *testing.T) {
	for i, pr := range serverGoldenProblems(t) {
		compact, hash, err := canonicalize("HDLTS", pr)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := CanonicalProblemJSON(pr)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, canon); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact, want.Bytes()) {
			t.Fatalf("problem %d: compact render\n%s\nwant\n%s", i, compact, want.Bytes())
		}
		if wantHash, _ := CanonicalHash("HDLTS", pr); hash != wantHash {
			t.Fatalf("problem %d: hash %s, CanonicalHash %s", i, hash, wantHash)
		}
	}
}

// shuffledSubmission draws a seeded random problem and renders it as a
// client might send it: edges in a random order and, every other seed, a
// bandwidth matrix of unit links written out. It returns the request
// text and the problem as decoding it gives it.
func shuffledSubmission(t *testing.T, seed int64) (json.RawMessage, *sched.Problem) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	procs := 2 + rng.Intn(3)
	pr, err := gen.Random(gen.Params{V: 8 + rng.Intn(25), Alpha: 1, Density: 3, CCR: 1, Procs: procs, WDAG: 50, Beta: 1},
		rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	edges := doc["graph"].(map[string]any)["edges"].([]any)
	rng.Shuffle(len(edges), func(i, k int) { edges[i], edges[k] = edges[k], edges[i] })
	if seed%2 == 0 {
		bw := make([][]float64, procs)
		for a := range bw {
			bw[a] = make([]float64, procs)
			for b := range bw[a] {
				if a != b {
					bw[a][b] = 1
				}
			}
		}
		doc["bandwidth"] = bw
	}
	text, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeProblem(text)
	if err != nil {
		t.Fatal(err)
	}
	return text, decoded
}

// sameSolverInput fails unless got and want present every solver with the
// same input: tasks, arcs in adjacency order, W, and the platform's
// bandwidths and uniformity.
func sameSolverInput(t *testing.T, got, want *sched.Problem) {
	t.Helper()
	if got.NumTasks() != want.NumTasks() || got.NumProcs() != want.NumProcs() || got.G.NumEdges() != want.G.NumEdges() {
		t.Fatalf("shape %dx%d/%d, want %dx%d/%d", got.NumTasks(), got.NumProcs(), got.G.NumEdges(),
			want.NumTasks(), want.NumProcs(), want.G.NumEdges())
	}
	same := func(a, b []dag.Arc) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if a[k].Task != b[k].Task || math.Float64bits(a[k].Data) != math.Float64bits(b[k].Data) {
				return false
			}
		}
		return true
	}
	for i := 0; i < want.NumTasks(); i++ {
		id := dag.TaskID(i)
		if got.G.Task(id) != want.G.Task(id) {
			t.Fatalf("task %d = %+v, want %+v", i, got.G.Task(id), want.G.Task(id))
		}
		if !same(got.G.Succs(id), want.G.Succs(id)) || !same(got.G.Preds(id), want.G.Preds(id)) {
			t.Fatalf("task %d arcs %v / %v, want %v / %v", i, got.G.Succs(id), got.G.Preds(id), want.G.Succs(id), want.G.Preds(id))
		}
		for p := 0; p < want.NumProcs(); p++ {
			if g, w := got.W.At(i, platform.Proc(p)), want.W.At(i, platform.Proc(p)); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("W(%d,%d) = %v, want %v", i, p, g, w)
			}
		}
	}
	if got.P.Uniform() != want.P.Uniform() {
		t.Fatalf("uniform platform %v, want %v", got.P.Uniform(), want.P.Uniform())
	}
	for a := 0; a < want.NumProcs(); a++ {
		for b := 0; b < want.NumProcs(); b++ {
			if g, w := got.P.Bandwidth(platform.Proc(a), platform.Proc(b)), want.P.Bandwidth(platform.Proc(a), platform.Proc(b)); g != w {
				t.Fatalf("B(%d,%d) = %v, want %v", a, b, g, w)
			}
		}
	}
}

// TestHandOverMatchesCanonicalDecode: the problem admission hands to a
// fresh job's run is, to every solver, the problem a recovered run
// decodes from the stored canonical bytes, whatever the edge order and
// bandwidth spelling of the request; and CPOP and HDLTS schedule the two
// identically. Solving the client's own decoding instead would not: the
// test fails unless some request's edge order changes CPOP's schedule.
func TestHandOverMatchesCanonicalDecode(t *testing.T) {
	srv := newTestServer(t, Config{})
	schedule := func(alg sched.Algorithm, pr *sched.Problem) []byte {
		t.Helper()
		s, err := alg.Schedule(pr)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := s.WriteScheduleJSON(&out, alg.Name()); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	orderMatters := false
	for seed := int64(0); seed < 40; seed++ {
		_, client := shuffledSubmission(t, seed)
		for _, name := range []string{"cpop", "hdlts"} {
			_, clientCopy := shuffledSubmission(t, seed)
			it := jobItem{algorithm: name, problem: clientCopy, set: true}
			sub, err := srv.prepareSubmission(context.Background(), &it)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := decodeProblem(sub.canonical)
			if err != nil {
				t.Fatal(err)
			}
			sameSolverInput(t, sub.problem, stored)
			alg := registry.MustGet(name)
			want := schedule(alg, stored)
			if got := schedule(alg, sub.problem); !bytes.Equal(got, want) {
				t.Fatalf("seed %d %s: the handed-over problem schedules\n%s\nthe stored bytes\n%s", seed, name, got, want)
			}
			if name == "cpop" && !bytes.Equal(schedule(alg, client), want) {
				orderMatters = true
			}
		}
	}
	if !orderMatters {
		t.Fatal("no request's edge order changes CPOP's schedule; the requests no longer tell a hand-over without Canonicalize apart")
	}
}

// TestJobResultMatchesRecovered: a fresh job, which solves the problem
// its admission handed over, stores the result that the same job
// recovered from its WAL, which decodes the stored canonical bytes,
// stores — for CPOP and HDLTS, over the requests
// TestHandOverMatchesCanonicalDecode draws, some of whose edge orders
// change CPOP's schedule. Each job goes
// back to queued, as its first WAL line has it, in a second store, whose
// server runs every job again.
func TestJobResultMatchesRecovered(t *testing.T) {
	fresh := newTestServer(t, Config{Jobs: jobs.Config{Dir: t.TempDir()}})
	results := map[string][]byte{}
	var wal []byte
	for seed := int64(0); seed < 40; seed++ {
		text, _ := shuffledSubmission(t, seed)
		for _, name := range []string{"cpop", "hdlts"} {
			v, _ := submitJob(t, fresh, name, text)
			done := waitJobState(t, fresh, v.ID, "done")
			results[v.ID] = maskElapsed(done.Result)
			j, err := fresh.Jobs().Get(v.ID)
			if err != nil {
				t.Fatal(err)
			}
			queued := jobs.Job{ID: j.ID, Algorithm: j.Algorithm, Hash: j.Hash, Problem: j.Problem,
				State: jobs.Queued, MaxAttempts: j.MaxAttempts, Seq: j.Seq, SubmittedAt: j.SubmittedAt}
			line, err := json.Marshal(map[string]any{"op": "put", "job": &queued})
			if err != nil {
				t.Fatal(err)
			}
			wal = append(append(wal, line...), '\n')
		}
	}
	if len(results) != 80 {
		t.Fatalf("%d distinct jobs, want 80", len(results))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered := newTestServer(t, Config{Jobs: jobs.Config{Dir: dir}})
	for id, want := range results {
		done := waitJobState(t, recovered, id, "done")
		if got := maskElapsed(done.Result); !bytes.Equal(got, want) {
			t.Fatalf("job %s: recovered result\n%s\nfresh result\n%s", id, got, want)
		}
	}
}
