package perf

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunSuiteReport drives the runner over a synthetic two-bench suite
// and checks measurement plumbing: per-bench benchtime overrides, alloc
// accounting, and custom-metric capture.
func TestRunSuiteReport(t *testing.T) {
	benches := []Bench{
		{Name: "t/alloc", HotPath: true, Quick: true, Benchtime: "3x", F: func(b *testing.B) {
			b.ReportAllocs()
			var sink []byte
			for i := 0; i < b.N; i++ {
				sink = make([]byte, 1024)
			}
			_ = sink
			b.ReportMetric(42, "custom_unit")
		}},
		{Name: "t/clean", Quick: false, Benchtime: "2x", F: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
			}
		}},
	}
	var log bytes.Buffer
	rep, err := RunSuite(benches, RunOptions{Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != SchemaVersion || rep.Suite != SuiteName || rep.CreatedUnix == 0 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.Env.GoVersion == "" || rep.Env.NumCPU == 0 {
		t.Errorf("env not captured: %+v", rep.Env)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	al := rep.Find("t/alloc")
	if al == nil || al.N != 3 {
		t.Fatalf("t/alloc: benchtime override not honoured: %+v", al)
	}
	if !al.HotPath {
		t.Error("t/alloc lost its hot-path mark")
	}
	if al.AllocsPerOp != 1 || al.BytesPerOp < 1024 {
		t.Errorf("t/alloc accounting: %d allocs/op, %d B/op", al.AllocsPerOp, al.BytesPerOp)
	}
	if al.Metrics["custom_unit"] != 42 {
		t.Errorf("custom metric lost: %v", al.Metrics)
	}
	if cl := rep.Find("t/clean"); cl == nil || cl.N != 2 || cl.AllocsPerOp != 0 {
		t.Errorf("t/clean: %+v", cl)
	}
	if !strings.Contains(log.String(), "t/alloc") {
		t.Error("progress log empty")
	}
}

// TestRunSuiteSelection checks Quick and Filter narrowing.
func TestRunSuiteSelection(t *testing.T) {
	noop := func(b *testing.B) { b.ReportAllocs() }
	benches := []Bench{
		{Name: "a/one", Quick: true, Benchtime: "1x", F: noop},
		{Name: "a/two", Quick: false, Benchtime: "1x", F: noop},
		{Name: "b/three", Quick: true, Benchtime: "1x", F: noop},
	}
	rep, err := RunSuite(benches, RunOptions{Quick: true, Filter: regexp.MustCompile(`^a/`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "a/one" {
		t.Fatalf("selection wrong: %+v", rep.Results)
	}
	if !rep.Quick {
		t.Error("quick flag not recorded")
	}
}

// TestSuiteShape pins the canonical suite's contract: stable names, a
// non-empty quick subset, and the hot-path set the CI gate relies on.
func TestSuiteShape(t *testing.T) {
	suite := Suite()
	seen := map[string]bool{}
	quick, hot := 0, 0
	for _, bn := range suite {
		if bn.Name == "" || bn.F == nil {
			t.Fatalf("malformed bench: %+v", bn.Name)
		}
		if seen[bn.Name] {
			t.Fatalf("duplicate bench name %q", bn.Name)
		}
		seen[bn.Name] = true
		if bn.Quick {
			quick++
		}
		if bn.HotPath {
			hot++
		}
	}
	if quick < 5 || hot < 5 {
		t.Errorf("suite has %d quick and %d hot benches; the CI gate needs both populated", quick, hot)
	}
	for _, name := range []string{"solver/hdlts/v1k", "solver/hdlts/v10k", "solver/hdlts/v100k",
		"hash/canonical/v1k", "wal/submit_fsync", "service/schedule_roundtrip",
		"layer/decode/v100", "layer/decode/v1k", "layer/canonical/v100", "layer/canonical/v1k", "layer/encode/v1k"} {
		if !seen[name] {
			t.Errorf("canonical bench %q missing from the suite", name)
		}
	}
}

func TestTrajectoryFiles(t *testing.T) {
	dir := t.TempDir()
	if rep, path, err := LatestReport(dir); rep != nil || path != "" || err != nil {
		t.Fatalf("empty dir: rep=%v path=%q err=%v", rep, path, err)
	}
	p1, err := NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p1) != "BENCH_0001.json" {
		t.Fatalf("first epoch path = %s", p1)
	}
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Suite:         SuiteName,
		CreatedUnix:   1700000000,
		Env:           CaptureEnv(),
		Results:       []Result{{Name: "t/one", HotPath: true, N: 5, NsPerOp: 100, AllocsPerOp: 3, BytesPerOp: 64}},
	}
	if err := WriteReport(p1, rep); err != nil {
		t.Fatal(err)
	}
	got, path, err := LatestReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != p1 || got.CreatedUnix != rep.CreatedUnix || len(got.Results) != 1 {
		t.Fatalf("round trip: path=%s report=%+v", path, got)
	}
	if g, w := got.Results[0], rep.Results[0]; g.Name != w.Name || g.NsPerOp != w.NsPerOp ||
		g.AllocsPerOp != w.AllocsPerOp || g.HotPath != w.HotPath {
		t.Errorf("result drifted: %+v != %+v", g, w)
	}
	p2, err := NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p2) != "BENCH_0002.json" {
		t.Fatalf("second epoch path = %s", p2)
	}
	// No torn temp files left behind.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != "BENCH_0001.json" {
			t.Errorf("stray file %s", e.Name())
		}
	}
}

func TestLoadReportRejectsForeignSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_0001.json")
	if err := os.WriteFile(path, []byte(`{"schema_version": 99, "suite": "canonical"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("foreign schema accepted: %v", err)
	}
	if err := os.WriteFile(path, []byte(`{"schema_version": 1, "suite": "other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil || !strings.Contains(err.Error(), "suite") {
		t.Fatalf("foreign suite accepted: %v", err)
	}
}
