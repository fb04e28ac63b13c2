package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

// examplJSON renders the paper example problem to JSON for CLI input.
func exampleJSON(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := workflows.PaperExample().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunSingleAlgorithmFromStdin(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "hdlts", In: "-", Validate: true, Width: 60}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "problem: 10 tasks, 15 edges, 3 processors") {
		t.Fatalf("problem header missing:\n%s", s)
	}
	if !strings.Contains(s, "HDLTS") || !strings.Contains(s, "73") {
		t.Fatalf("result row missing:\n%s", s)
	}
}

// TestRunExplainDeterministic pins the CI acceptance check: -explain on
// the Fig. 1 problem produces a full report and is byte-identical across
// runs.
func TestRunExplainDeterministic(t *testing.T) {
	render := func() string {
		var out bytes.Buffer
		if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "hdlts", In: "-", Explain: true, Validate: true, Width: 60}); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := render()
	for _, want := range []string{`"algorithm": "HDLTS"`, `"critical_path"`, `"rationale"`, `"itq"`, `"utilization"`} {
		if !strings.Contains(first, want) {
			t.Errorf("explain output missing %s:\n%s", want, first)
		}
	}
	if second := render(); first != second {
		t.Error("-explain output differs across identical runs")
	}
	// Algorithms without a capture hook still report structure.
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "heft", In: "-", Explain: true, Validate: true, Width: 60}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"critical_path"`) || strings.Contains(out.String(), `"rationale"`) {
		t.Errorf("heft explain wrong shape:\n%s", out.String())
	}
}

// TestRunExplainGolden holds -explain's stdout on Fig. 1 byte for byte to
// testdata/explain_fig1.golden, for all six algorithms: HDLTS with per-task
// rationale, the rest placements only.
func TestRunExplainGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "all", In: "-", Explain: true, Validate: true, Width: 60}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "explain_fig1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-explain output differs from the fixture\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}

func TestRunAllAlgorithmsWithGantt(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "all", In: "-", Gantt: true, Validate: true, Width: 60}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, alg := range []string{"HDLTS", "HEFT", "CPOP", "PETS", "PEFT", "SDBATS"} {
		if !strings.Contains(s, alg) {
			t.Errorf("missing %s:\n%s", alg, s)
		}
	}
	if !strings.Contains(s, "makespan = 73") {
		t.Errorf("HDLTS Gantt missing:\n%s", s)
	}
}

func TestRunTrace(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "hdlts", In: "-", Trace: true, Validate: true, Width: 60}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "HDLTS trace:") || !strings.Contains(out.String(), "step 10") {
		t.Fatalf("trace missing:\n%s", out.String())
	}
}

// TestRunTraceUnsupportedAlgorithm checks the guard: -trace with an
// algorithm that has no decision trace must fail up front, and the error
// must name which algorithms do support it.
func TestRunTraceUnsupportedAlgorithm(t *testing.T) {
	for _, alg := range []string{"heft", "cpop", "pets", "peft", "sdbats"} {
		var out bytes.Buffer
		err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: alg, In: "-", Trace: true, Validate: true, Width: 60})
		if err == nil {
			t.Fatalf("-trace -alg %s accepted", alg)
		}
		if !strings.Contains(err.Error(), "hdlts") || !strings.Contains(err.Error(), alg) {
			t.Errorf("-trace -alg %s error does not name the supported algorithms and the offender: %v", alg, err)
		}
	}
	// -alg all includes HDLTS, so -trace stays legal there.
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "all", In: "-", Trace: true, Validate: true, Width: 60}); err != nil {
		t.Fatalf("-trace -alg all rejected: %v", err)
	}
	if !strings.Contains(out.String(), "HDLTS trace:") {
		t.Fatalf("-trace -alg all did not print the HDLTS trace:\n%s", out.String())
	}
}

// TestRunEventsJSONL checks the -events sink: one JSON object per line,
// algorithm-stamped, covering every configured algorithm.
func TestRunEventsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "all", In: "-", Validate: true, Width: 60, Events: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 {
		t.Fatal("no events written")
	}
	algs := map[string]bool{}
	for i, ln := range lines {
		var ev struct {
			Seq int    `json:"seq"`
			Ev  string `json:"ev"`
			Alg string `json:"alg"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i+1, err, ln)
		}
		if ev.Seq != i+1 {
			t.Fatalf("line %d has seq %d", i+1, ev.Seq)
		}
		algs[ev.Alg] = true
	}
	// HDLTS emits the full decision stream; baselines at least phase-free
	// commit events via the shared estimator.
	for _, alg := range []string{"HDLTS", "HEFT", "CPOP", "PETS", "PEFT", "SDBATS"} {
		if !algs[alg] {
			t.Errorf("no events stamped %s (saw %v)", alg, algs)
		}
	}
}

// TestRunChromeTraceAcceptance is the issue's acceptance check: hdltsched
// -alg all -chrome-trace on the Fig. 1 example must emit valid Chrome
// trace-event JSON whose HDLTS process track shows the schedule ending at
// makespan 73.
func TestRunChromeTraceAcceptance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "all", In: "-", Validate: true, Width: 60, ChromeTrace: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	// Find the HDLTS process id from its process_name metadata record.
	hdltsPID := -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if name, _ := ev.Args["name"].(string); name == "HDLTS" {
				hdltsPID = ev.PID
			}
		}
	}
	if hdltsPID < 0 {
		t.Fatal("no HDLTS process track in the chrome trace")
	}
	// The latest span end on the HDLTS track is the makespan: 73 sim units
	// = 73 000 µs at the default 1 ms scale.
	maxEnd := 0.0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID == hdltsPID {
			if end := ev.TS + ev.Dur; end > maxEnd {
				maxEnd = end
			}
		}
	}
	if maxEnd != 73000 {
		t.Fatalf("HDLTS track ends at %g µs, want 73000 (makespan 73)", maxEnd)
	}
}

// TestRunStats checks that -stats dumps the Prometheus-text registry to the
// error stream, not stdout.
func TestRunStats(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "hdlts", In: "-", Validate: true, Width: 60, Stats: true, Err: &errOut}); err != nil {
		t.Fatal(err)
	}
	s := errOut.String()
	if !strings.Contains(s, "hdlts_sched_commits_total") || !strings.Contains(s, "hdlts_iterations_total") {
		t.Fatalf("-stats output missing counters:\n%s", s)
	}
	if strings.Contains(out.String(), "hdlts_sched_commits_total") {
		t.Fatal("-stats leaked into stdout")
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, []byte(exampleJSON(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, nil, options{Alg: "heft", In: path, Validate: true, Width: 60}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "HEFT") || !strings.Contains(out.String(), "80") {
		t.Fatalf("HEFT row missing:\n%s", out.String())
	}
}

func TestRunSVGAndAnalyze(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "gantt.svg")
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "all", In: "-", Validate: true, Width: 60, SVG: svg, OutJSON: filepath.Join(dir, "sched.json"), Analyze: true}); err != nil {
		t.Fatal(err)
	}
	// Per-algorithm suffixing with -alg all.
	data, err := os.ReadFile(filepath.Join(dir, "gantt-hdlts.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("SVG content malformed")
	}
	if !strings.Contains(out.String(), "analysis:") || !strings.Contains(out.String(), "utilization") {
		t.Fatalf("analysis output missing:\n%s", out.String())
	}
	// The exported schedule JSON must reconstruct and re-validate.
	f, err := os.Open(filepath.Join(dir, "sched-hdlts.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, algName, err := sched.ReadScheduleJSON(workflows.PaperExample(), f)
	if err != nil {
		t.Fatal(err)
	}
	if algName != "HDLTS" || s.Makespan() != 73 {
		t.Fatalf("reconstructed %s schedule with makespan %g", algName, s.Makespan())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, strings.NewReader("{"), options{Alg: "hdlts", In: "-", Validate: true, Width: 60}); err == nil {
		t.Error("garbage input accepted")
	}
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "nosuch", In: "-", Validate: true, Width: 60}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(&out, nil, options{Alg: "hdlts", In: "/does/not/exist.json", Validate: true, Width: 60}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunCriticalPath(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(exampleJSON(t)), options{Alg: "hdlts", In: "-", Validate: true, Width: 60, CP: true}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "critical path (min costs):") || !strings.Contains(s, "lower bound") {
		t.Fatalf("critical-path output missing:\n%s", s)
	}
	// The Fig. 1 min-cost CP is T1 -> T2 -> T9 -> T10.
	if !strings.Contains(s, "T1 -> T2 -> T9 -> T10") {
		t.Fatalf("unexpected critical path:\n%s", s)
	}
}
