package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"hdlts/internal/gen"
)

// TestExplainRequestRecordsDecisionEvents: a sampled ?explain=1 request
// runs the same engine as every other solve, so its HDLTS decision events
// (pv, iteration, commit) land in the trace ring next to the span tree —
// on Fig. 1, one iteration per task in the paper's Table I order.
func TestExplainRequestRecordsDecisionEvents(t *testing.T) {
	const reqID = "explain-ring-01"
	srv := newTestServer(t, Config{})
	rec := doWithRequestID(srv, http.MethodPost, "/v1/schedule?explain=1", reqID,
		ScheduleRequest{Algorithm: "hdlts", Problem: problemJSON(t)})
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule = %d: %s", rec.Code, rec.Body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Explain) == 0 {
		t.Fatal("explain=1 returned no explain report")
	}
	tr, trec := getTrace(t, srv, "/v1/traces/"+reqID)
	if tr == nil {
		t.Fatalf("trace = %d: %s", trec.Code, trec.Body)
	}
	var selected []int
	counts := map[string]int{}
	for _, raw := range tr.Events {
		var e struct {
			Ev   string `json:"ev"`
			Alg  string `json:"alg"`
			Task int    `json:"task"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		if e.Alg != "HDLTS" {
			t.Fatalf("event not stamped HDLTS: %s", raw)
		}
		counts[e.Ev]++
		if e.Ev == "iteration" {
			selected = append(selected, e.Task+1)
		}
	}
	// Table I: the selection order and the ITQ widths summed over steps.
	if want := []int{1, 6, 3, 7, 4, 5, 2, 9, 8, 10}; fmt.Sprint(selected) != fmt.Sprint(want) {
		t.Errorf("iteration events select %v, want Table I order %v", selected, want)
	}
	if counts["pv"] != 24 {
		t.Errorf("pv events = %d, want 24 (one per queued task per iteration)", counts["pv"])
	}
	if counts["commit"] != 12 {
		t.Errorf("commit events = %d, want 12 (10 tasks + 2 entry duplicates)", counts["commit"])
	}
	if counts["estimate"] != 0 {
		t.Errorf("HDLTS emitted %d estimate events, want none", counts["estimate"])
	}
}

// TestScheduleSameAcrossSampling: observing a request must not change what
// runs. The same /v1/schedule requests — plain, with "trace": true, and
// with ?explain=1 — answer byte-identical bodies (elapsed_seconds masked)
// from a server whose trace store samples every request and from one that
// samples none.
func TestScheduleSameAcrossSampling(t *testing.T) {
	everything := newTestServer(t, Config{})
	nothing := newTestServer(t, Config{TraceSample: math.MaxInt32})
	// A store samples the first request it sees; spend that slot so every
	// request below goes unsampled.
	if rec := doWithRequestID(nothing, http.MethodPost, "/v1/schedule", "warm-up",
		ScheduleRequest{Problem: problemJSON(t)}); rec.Code != http.StatusOK {
		t.Fatalf("warm-up = %d: %s", rec.Code, rec.Body)
	}

	pr, err := gen.Random(gen.Params{V: 300, Alpha: 1.5, Density: 3, CCR: 2, Procs: 6, WDAG: 80, Beta: 1.2},
		rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	var big bytes.Buffer
	if err := pr.WriteJSON(&big); err != nil {
		t.Fatal(err)
	}
	n := 0
	for name, problem := range map[string]json.RawMessage{"fig1": problemJSON(t), "v300": big.Bytes()} {
		for _, v := range []struct {
			path  string
			trace bool
		}{{"/v1/schedule", false}, {"/v1/schedule", true}, {"/v1/schedule?explain=1", false}} {
			n++
			id := fmt.Sprintf("same-path-%02d", n)
			req := ScheduleRequest{Algorithm: "hdlts", Problem: problem, Trace: v.trace}
			sampled := doWithRequestID(everything, http.MethodPost, v.path, id, req)
			unsampled := doWithRequestID(nothing, http.MethodPost, v.path, id, req)
			if sampled.Code != http.StatusOK || unsampled.Code != http.StatusOK {
				t.Fatalf("%s %s trace=%v: %d / %d", name, v.path, v.trace, sampled.Code, unsampled.Code)
			}
			if tr, _ := getTrace(t, everything, "/v1/traces/"+id); tr == nil || len(tr.Events) == 0 {
				t.Fatalf("%s %s trace=%v: sampled request has no decision events in the ring", name, v.path, v.trace)
			}
			if tr, _ := getTrace(t, nothing, "/v1/traces/"+id); tr != nil {
				t.Fatalf("%s %s trace=%v: request was sampled on the sample-nothing server", name, v.path, v.trace)
			}
			if a, b := maskElapsed(sampled.Body.Bytes()), maskElapsed(unsampled.Body.Bytes()); !bytes.Equal(a, b) {
				t.Fatalf("%s %s trace=%v: sampled and unsampled bodies differ:\n%s\nunsampled:\n%s", name, v.path, v.trace, a, b)
			}
		}
	}
}
