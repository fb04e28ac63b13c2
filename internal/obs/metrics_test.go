package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("reqs_total") != c {
		t.Error("get-or-create returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %g, want 2.5", g.Value())
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	g := NewRegistry().Gauge("in_flight")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Add(2)
				g.Dec()
				g.Add(-2)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Errorf("gauge = %g after balanced Inc/Dec pairs, want 0", g.Value())
	}
}

func TestLabelledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("phase_total", "alg", "HEFT")
	b := r.Counter("phase_total", "alg", "CPOP")
	if a == b {
		t.Fatal("labelled series collapsed")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Error("label isolation broken")
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds")
	for _, v := range []float64{1e-7, 1e-3, 0.2, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 1e-7+1e-3+0.2+100; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
	if h.Mean() == 0 {
		t.Error("mean should be non-zero")
	}
	var empty Histogram
	if empty.Mean() != 0 {
		t.Error("empty histogram mean should be 0")
	}
	h.ObserveSince(time.Now())
	if h.Count() != 5 {
		t.Error("ObserveSince did not record")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if got := h.Sum(); got < 7.99 || got > 8.01 {
		t.Errorf("sum = %g, want ~8", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("commits_total", "alg", "HDLTS").Add(10)
	r.Gauge("ready").Set(3)
	r.Histogram("validate_seconds").Observe(0.002)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`commits_total{alg="HDLTS"} 10`,
		"ready 3",
		`validate_seconds_bucket{le="+Inf"} 1`,
		"validate_seconds_sum 0.002",
		"validate_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative buckets: the 5e-3 bucket must already include the 2ms
	// observation.
	if !strings.Contains(out, `validate_seconds_bucket{le="0.005"} 1`) {
		t.Errorf("cumulative bucket missing in:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.Gauge("b").Set(1.5)
	r.Histogram("c_seconds").Observe(2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 3 {
		t.Fatalf("got %d metrics, want 3", len(out))
	}
	if out[0]["name"] != "a_total" || out[0]["kind"] != "counter" {
		t.Errorf("unexpected first metric: %v", out[0])
	}
	if out[2]["kind"] != "histogram" || out[2]["count"].(float64) != 1 {
		t.Errorf("unexpected histogram metric: %v", out[2])
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Reset()
	if r.Counter("x").Value() != 0 {
		t.Error("Reset kept old counter state")
	}
}

func TestSolveTimerRecordsIntoDefault(t *testing.T) {
	Default().Reset()
	defer Default().Reset()
	StartSolve("HEFT").Stop()
	h := Default().Histogram(MetricSolverPhase, "alg", "HEFT", "phase", "schedule")
	if h.Count() != 1 {
		t.Errorf("solve observation count = %d, want 1", h.Count())
	}
	if got := len(h.bounds); got != len(ExpBuckets(1e-6, 10, 3)) {
		t.Errorf("solver phase histogram has %d bounds, want the µs-resolution set", got)
	}
}

func TestOddLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd label list did not panic")
		}
	}()
	NewRegistry().Counter("bad", "alg")
}
