package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"regexp"
	"slices"
	"testing"

	"hdlts/internal/dag"
	"hdlts/internal/gen"
	"hdlts/internal/platform"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

// The tests in this file hold the wire codec's server output to the
// reflection pipeline it replaced: a ScheduleResponse whose Schedule is a
// json.RawMessage, rendered by an indenting json.Encoder for /v1/schedule
// and by json.Marshal for stored job results. The schedule and canonical
// problem bytes themselves are held to the reflection codec in
// internal/sched's TestWireCompatGolden.

// oracleBody renders resp the way the handler did before the wire codec.
func oracleBody(t *testing.T, resp *ScheduleResponse, indent bool) []byte {
	t.Helper()
	if !indent {
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var elapsedRE = regexp.MustCompile(`"elapsed_seconds": ?[-+.eE0-9]+`)

// maskElapsed blanks the one wall-clock field of a response.
func maskElapsed(b []byte) []byte { return elapsedRE.ReplaceAll(b, []byte(`"elapsed_seconds":0`)) }

// renamed rebuilds pr with awkward task names: HTML-significant bytes,
// non-ASCII text, U+2028, quotes and control characters.
func renamed(pr *sched.Problem, pl *platform.Platform) *sched.Problem {
	names := []string{"<T&%d>", "caf\u00e9 %d", "sep\u2028%d\u2029", "q\"%d\"\t", "%d"}
	g := dag.New(pr.NumTasks())
	for i := 0; i < pr.NumTasks(); i++ {
		name := fmt.Sprintf(names[i%len(names)], i)
		if pr.G.Task(dag.TaskID(i)).Pseudo {
			g.AddPseudoTask(name)
		} else {
			g.AddTask(name)
		}
	}
	for u := 0; u < pr.NumTasks(); u++ {
		for _, a := range pr.G.Succs(dag.TaskID(u)) {
			g.MustAddEdge(dag.TaskID(u), a.Task, a.Data)
		}
	}
	return sched.MustProblem(g, pl, pr.W)
}

// serverGoldenProblems is Fig. 1 plus 50 seeded random problems, every
// other one on a non-uniform two-cluster platform.
func serverGoldenProblems(t *testing.T) []*sched.Problem {
	out := []*sched.Problem{workflows.PaperExample()}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 50; i++ {
		procs := 2 + rng.Intn(5)
		pr, err := gen.Random(gen.Params{
			V: 5 + rng.Intn(50), Alpha: 0.5 + rng.Float64(), Density: 1 + rng.Intn(4),
			CCR: []float64{0.1, 1, 5}[rng.Intn(3)], Procs: procs, WDAG: 50, Beta: rng.Float64() * 2,
			MultiEntry: i%4 == 0,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		pl := pr.P
		if i%2 == 1 {
			if pl, err = platform.TwoClusters(procs/2, procs-procs/2, 2.5, 0.125); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, renamed(pr, pl))
	}
	return out
}

// TestServerWireCompatGolden checks /v1/schedule bodies (plain, with
// "trace": true, with ?explain=1, and with both) and stored /v1/jobs results byte for
// byte against the oracle rendering, elapsed_seconds masked.
func TestServerWireCompatGolden(t *testing.T) {
	srv := newTestServer(t, Config{})
	for i, pr := range serverGoldenProblems(t) {
		canon, err := CanonicalProblemJSON(pr)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"hdlts", "heft", "sdbats"} {
			alg := registry.MustGet(name)
			dec, err := decodeProblem(canon)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := alg.Schedule(dec)
			if err != nil {
				t.Fatal(err)
			}
			var sbuf bytes.Buffer
			if err := sc.WriteScheduleJSON(&sbuf, alg.Name()); err != nil {
				t.Fatal(err)
			}
			schedule := json.RawMessage(bytes.TrimSpace(sbuf.Bytes()))

			var traced, explained ScheduleResponse
			for _, v := range []struct {
				path  string
				trace bool
			}{{"/v1/schedule", false}, {"/v1/schedule", true}, {"/v1/schedule?explain=1", false}, {"/v1/schedule?explain=1", true}} {
				rec := doWithRequestID(srv, http.MethodPost, v.path, "",
					ScheduleRequest{Algorithm: name, Problem: canon, Trace: v.trace})
				if rec.Code != http.StatusOK {
					t.Fatalf("problem %d %s %s: %d %s", i, name, v.path, rec.Code, rec.Body)
				}
				var resp ScheduleResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if v.trace != (len(resp.Events) > 0) || (v.path != "/v1/schedule") != (len(resp.Explain) > 0) {
					t.Fatalf("problem %d %s %s: events %d, explain %d bytes", i, name, v.path, len(resp.Events), len(resp.Explain))
				}
				resp.Schedule = schedule
				if got, want := maskElapsed(rec.Body.Bytes()), maskElapsed(oracleBody(t, &resp, true)); !bytes.Equal(got, want) {
					t.Fatalf("problem %d %s %s trace=%v: body differs from the oracle:\n%s\noracle:\n%s", i, name, v.path, v.trace, got, want)
				}
				// Explain and trace in one request each match their
				// single-feature bodies.
				switch {
				case v.trace && len(resp.Explain) == 0:
					traced = resp
				case !v.trace:
					explained = resp
				default:
					if !slices.EqualFunc(resp.Events, traced.Events, func(a, b json.RawMessage) bool { return bytes.Equal(a, b) }) || !bytes.Equal(resp.Explain, explained.Explain) {
						t.Fatalf("problem %d %s: explain+trace body differs from the trace-only events or the explain-only report", i, name)
					}
				}
			}

			if i%5 != 0 {
				continue // the job path is slower; a fifth of the problems cover it
			}
			view, rec := submitJob(t, srv, name, canon)
			if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
				t.Fatalf("submit: %d %s", rec.Code, rec.Body)
			}
			waitJobState(t, srv, view.ID, "done")
			j, err := srv.Jobs().Get(view.ID)
			if err != nil {
				t.Fatal(err)
			}
			var resp ScheduleResponse
			if err := json.Unmarshal(j.Result, &resp); err != nil {
				t.Fatal(err)
			}
			resp.Schedule = schedule
			if got, want := maskElapsed(j.Result), maskElapsed(oracleBody(t, &resp, false)); !bytes.Equal(got, want) {
				t.Fatalf("problem %d %s: job result differs from the oracle:\n%s\noracle:\n%s", i, name, got, want)
			}
		}
	}
}

// TestCanonicalHashStable pins the content address of Fig. 1 to the value
// the reflection codec produced: it keys the job result cache and appears
// in existing job WALs.
func TestCanonicalHashStable(t *testing.T) {
	for alg, want := range map[string]string{
		"HDLTS": "00d86c7d625982002b4122d9d8b09db520ff3bcdaaf2a102e3586a12567a50ef",
		"HEFT":  "2b965657fcb81c363d11f3b86948452fbf26f5cab8857e1f74a84e3b251efbed",
	} {
		got, err := CanonicalHash(alg, workflows.PaperExample())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("CanonicalHash(%s, Fig. 1) = %s, want %s", alg, got, want)
		}
		canon, err := CanonicalProblemJSON(workflows.PaperExample())
		if err != nil {
			t.Fatal(err)
		}
		if hashOf(alg, canon) != want {
			t.Errorf("hashOf(%s, canonical bytes) disagrees with CanonicalHash", alg)
		}
	}
}
