package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hdlts/internal/exec"
	"hdlts/internal/obs"
)

// driftYAML claims "slow" costs 4 ms; the drift runner sleeps far longer,
// so the executor observes the overshoot and re-plans the pending fan
// steps — the live stream must carry the resulting workflow.replan event.
const driftYAML = `name: sse-drift
procs: 2
drift: 1.5
steps:
  - name: prep
    command: x
    cost: 0.002
  - name: slow
    command: x
    depends: [prep]
    costs: [0.004, 0.006]
  - name: fan1
    command: x
    depends: [prep]
    costs: [0.004, 0.006]
  - name: fan2
    command: x
    depends: [prep]
    costs: [0.004, 0.006]
  - name: fan3
    command: x
    depends: [prep]
    costs: [0.004, 0.006]
  - name: join
    command: x
    depends: [slow, fan1, fan2, fan3]
    cost: 0.002
`

// driftRunner makes "slow" massively overshoot its estimate.
func driftRunner(ctx context.Context, step exec.Step) error {
	d := 2 * time.Millisecond
	if step.Name == "slow" {
		d = 150 * time.Millisecond
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	kind string
	data obs.StreamEvent
}

// readSSE parses an event-stream body into a channel of events, closing it
// on EOF. Comment lines (": keepalive" and friends) are skipped. As the SSE
// format specifies, an event is dispatched at the blank line that ends it,
// so an event cut off when the test closes the body is dropped rather than
// parsed half-read.
func readSSE(t *testing.T, body io.Reader) <-chan sseEvent {
	t.Helper()
	out := make(chan sseEvent, 256)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(body)
		var kind, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && data != "":
				var ev obs.StreamEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Errorf("bad SSE data %q: %v", data, err)
					return
				}
				out <- sseEvent{kind: kind, data: ev}
				kind, data = "", ""
			}
		}
	}()
	return out
}

// openStream connects to an SSE endpoint and waits for the server to
// commit the subscription (first flush) before returning.
func openStream(t *testing.T, base, path string) (*http.Response, <-chan sseEvent) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s = %d, body %s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	return resp, readSSE(t, resp.Body)
}

func postWorkflowHTTP(t *testing.T, base, yaml string) *WorkflowView {
	t.Helper()
	resp, err := http.Post(base+"/v1/workflows", "application/yaml", strings.NewReader(yaml))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", resp.StatusCode, body)
	}
	var v WorkflowView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return &v
}

// TestSSEWorkflowLifecycle is the streaming acceptance test: a subscriber
// attached before submission sees the full workflow.plan → step.run →
// workflow.replan → workflow.done sequence live, and a subscriber that
// attaches after the fact gets a stream.skip marker counting what it
// missed.
func TestSSEWorkflowLifecycle(t *testing.T) {
	srv := newTestServer(t, Config{
		StreamHeartbeat: 50 * time.Millisecond,
		Workflows:       exec.Config{Runner: driftRunner},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, events := openStream(t, ts.URL,
		"/v1/events?kind=workflow.plan,step.run,workflow.replan,workflow.done")
	defer resp.Body.Close()

	v := postWorkflowHTTP(t, ts.URL, driftYAML)

	var kinds []string
	deadline := time.After(15 * time.Second)
collect:
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				break collect
			}
			if ev.data.Workflow != v.ID {
				continue // another test's workflow on the global feed
			}
			kinds = append(kinds, ev.kind)
			if ev.kind != string(ev.data.Kind) && ev.data.Kind != "" {
				t.Errorf("event name %q != data kind %q", ev.kind, ev.data.Kind)
			}
			if ev.kind == obs.KindWorkflowDone {
				break collect
			}
		case <-deadline:
			t.Fatalf("timed out waiting for workflow.done; saw %v", kinds)
		}
	}
	seq := strings.Join(kinds, " ")
	if kinds[0] != obs.KindWorkflowPlan {
		t.Errorf("first event = %q, want workflow.plan (sequence %s)", kinds[0], seq)
	}
	for _, want := range []string{obs.KindStepRun, obs.KindWorkflowReplan, obs.KindWorkflowDone} {
		if !strings.Contains(seq, want) {
			t.Errorf("sequence missing %q: %s", want, seq)
		}
	}
	// Ordering: plan strictly precedes the first step.run, which precedes done.
	if strings.Index(seq, obs.KindStepRun) < strings.Index(seq, obs.KindWorkflowPlan) {
		t.Errorf("step.run before workflow.plan: %s", seq)
	}

	// A late subscriber to the workflow's own feed starts with a skip
	// marker — everything already happened.
	lresp, levents := openStream(t, ts.URL, "/v1/workflows/"+v.ID+"/events")
	defer lresp.Body.Close()
	select {
	case ev := <-levents:
		if ev.kind != obs.KindStreamSkip {
			t.Errorf("late subscriber first event = %q, want stream.skip", ev.kind)
		}
		if ev.data.Skipped == 0 {
			t.Error("stream.skip carries no skipped count")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late subscriber got no skip marker")
	}

	// Unknown workflow feeds 404 instead of hanging.
	r404, err := http.Get(ts.URL + "/v1/workflows/wf-nope/events")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown workflow feed = %d, want 404", r404.StatusCode)
	}
}

// TestSSEDecisionFeedPerTrace streams a traced solve's decision events
// through the global feed filtered by trace ID.
func TestSSEDecisionFeedPerTrace(t *testing.T) {
	srv := newTestServer(t, Config{StreamHeartbeat: 50 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, events := openStream(t, ts.URL, "/v1/events?kind=decision,span")
	defer resp.Body.Close()

	rec := postSchedule(t, srv, ScheduleRequest{Problem: problemJSON(t), Trace: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule = %d", rec.Code)
	}

	decisions, spans := 0, 0
	deadline := time.After(10 * time.Second)
	for decisions == 0 || spans == 0 {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed early")
			}
			switch ev.kind {
			case obs.KindDecision:
				decisions++
				var payload struct {
					Ev string `json:"ev"`
				}
				if err := json.Unmarshal(ev.data.Data, &payload); err != nil {
					t.Fatal(err)
				}
				if ev.data.TraceID == "" || ev.data.Name != payload.Ev {
					t.Errorf("decision event missing trace or named %q, not %q: %+v", ev.data.Name, payload.Ev, ev.data)
				}
			case obs.KindSpan:
				spans++
			}
		case <-deadline:
			t.Fatalf("saw %d decisions, %d spans", decisions, spans)
		}
	}
}

// TestSSEDrainEndsStream pins shutdown behaviour: Drain must terminate
// open event streams instead of hanging Shutdown on them.
func TestSSEDrainEndsStream(t *testing.T) {
	srv := newTestServer(t, Config{StreamHeartbeat: time.Minute})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, events := openStream(t, ts.URL, "/v1/events")
	defer resp.Body.Close()

	srv.Drain()
	select {
	case _, ok := <-events:
		if ok {
			// An event in flight is fine; the close must still follow.
			for range events {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after drain")
	}

	// New subscriptions are refused while draining.
	r, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("subscribe while draining = %d, want 503", r.StatusCode)
	}
}

func waitDoneHTTP(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(fmt.Sprintf("%s/v1/workflows/%s", base, id))
		if err != nil {
			t.Fatal(err)
		}
		var v WorkflowView
		err = json.NewDecoder(r.Body).Decode(&v)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			if v.State != exec.Done {
				t.Fatalf("workflow ended %v: %s", v.State, v.Error)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("workflow did not finish")
}
