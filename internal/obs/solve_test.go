package obs

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
)

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 3)
	// 7 decades × 3 per decade + 1 endpoint.
	if len(b) != 22 {
		t.Fatalf("len(ExpBuckets(1e-6, 10, 3)) = %d, want 22", len(b))
	}
	if b[0] != 1e-6 {
		t.Errorf("first bound = %g, want exactly 1e-6", b[0])
	}
	if b[len(b)-1] != 10 {
		t.Errorf("last bound = %g, want exactly 10", b[len(b)-1])
	}
	// Log-spaced: the ratio between adjacent bounds is 10^(1/3) throughout.
	wantRatio := math.Pow(10, 1.0/3)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %g <= %g", i, b[i], b[i-1])
		}
		if r := b[i] / b[i-1]; math.Abs(r-wantRatio) > 1e-9 {
			t.Errorf("ratio b[%d]/b[%d] = %.12f, want %.12f", i, i-1, r, wantRatio)
		}
	}
	// A non-integer decade count still lands exactly on max.
	b = ExpBuckets(2e-6, 5, 4)
	if b[0] != 2e-6 || b[len(b)-1] != 5 {
		t.Errorf("endpoints = %g, %g, want exactly 2e-6 and 5", b[0], b[len(b)-1])
	}
}

func TestExpBucketsPanics(t *testing.T) {
	for _, tc := range []struct {
		min, max float64
		per      int
	}{{0, 1, 3}, {-1, 1, 3}, {1, 1, 3}, {2, 1, 3}, {1e-6, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExpBuckets(%g, %g, %d) did not panic", tc.min, tc.max, tc.per)
				}
			}()
			ExpBuckets(tc.min, tc.max, tc.per)
		}()
	}
}

func TestSetBuckets(t *testing.T) {
	r := NewRegistry()
	before := r.Histogram("hdlts_test_seconds", "k", "old")
	r.SetBuckets("hdlts_test_seconds", []float64{0.1, 1})
	after := r.Histogram("hdlts_test_seconds", "k", "new")
	if len(before.bounds) != len(defBuckets) {
		t.Errorf("pre-existing series re-bucketed: %d bounds", len(before.bounds))
	}
	if len(after.bounds) != 2 {
		t.Errorf("new series has %d bounds, want the 2 set", len(after.bounds))
	}
	// Unrelated names keep the defaults.
	if h := r.Histogram("hdlts_other_seconds"); len(h.bounds) != len(defBuckets) {
		t.Errorf("unrelated histogram got %d bounds", len(h.bounds))
	}
}

func TestSetBucketsRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds did not panic")
		}
	}()
	NewRegistry().SetBuckets("hdlts_test_seconds", []float64{1, 1})
}

func TestSolveTimerZeroAlloc(t *testing.T) {
	Default().Reset()
	defer Default().Reset()
	StartSolve("HDLTS").Stop() // series creation outside the measured loop
	if n := testing.AllocsPerRun(200, func() {
		StartSolve("HDLTS").Stop()
	}); n != 0 {
		t.Errorf("warm solve timer allocates %.1f/op, want 0", n)
	}
}

// TestSolveTimerConcurrent has solves of two algorithms share the
// registry's series cache from several goroutines at once.
func TestSolveTimerConcurrent(t *testing.T) {
	Default().Reset()
	defer Default().Reset()
	const workers, solves = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		alg := []string{"HDLTS", "HEFT"}[w%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < solves; i++ {
				StartSolve(alg).Stop()
			}
		}()
	}
	wg.Wait()
	for _, alg := range []string{"HDLTS", "HEFT"} {
		h := Default().Histogram(MetricSolverPhase, "alg", alg, "phase", "schedule")
		if got, want := h.Count(), int64(workers/2*solves); got != want {
			t.Errorf("%s: %d solve samples, want %d", alg, got, want)
		}
	}
}

// TestSolveTimerAfterReset fails if Reset keeps the per-algorithm cache:
// the timer would then record into a histogram the registry no longer
// exports.
func TestSolveTimerAfterReset(t *testing.T) {
	Default().Reset()
	defer Default().Reset()
	StartSolve("HEFT").Stop()
	Default().Reset()
	StartSolve("HEFT").Stop()
	var b bytes.Buffer
	if err := Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := MetricSolverPhase + `_count{alg="HEFT",phase="schedule"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition after Reset lacks %q:\n%s", want, b.String())
	}
}

func TestWithPprofLabels(t *testing.T) {
	var alg, phase string
	var ok1, ok2 bool
	WithPprofLabels(context.Background(), "HDLTS", "solve", func(ctx context.Context) {
		alg, ok1 = pprof.Label(ctx, "algorithm")
		phase, ok2 = pprof.Label(ctx, "phase")
	})
	if !ok1 || !ok2 || alg != "HDLTS" || phase != "solve" {
		t.Errorf("labels = (%q,%v), (%q,%v), want HDLTS/solve", alg, ok1, phase, ok2)
	}
}
