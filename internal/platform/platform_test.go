package platform

import (
	"math"
	"strings"
	"testing"
)

func TestNewUniform(t *testing.T) {
	if _, err := NewUniform(0); err == nil {
		t.Error("NewUniform(0) accepted")
	}
	if _, err := NewUniform(-3); err == nil {
		t.Error("NewUniform(-3) accepted")
	}
	p, err := NewUniform(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumProcs() != 4 {
		t.Fatalf("NumProcs = %d, want 4", p.NumProcs())
	}
	if b := p.Bandwidth(0, 1); b != 1 {
		t.Errorf("uniform bandwidth = %g, want 1", b)
	}
	if b := p.Bandwidth(2, 2); !math.IsInf(b, 1) {
		t.Errorf("self bandwidth = %g, want +Inf", b)
	}
}

func TestMustUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustUniform(0) did not panic")
		}
	}()
	MustUniform(0)
}

func TestNewWithBandwidth(t *testing.T) {
	good := [][]float64{{0, 2, 4}, {2, 0, 8}, {4, 8, 0}}
	p, err := NewWithBandwidth(good)
	if err != nil {
		t.Fatal(err)
	}
	if b := p.Bandwidth(1, 2); b != 8 {
		t.Errorf("B(1,2) = %g, want 8", b)
	}
	// The constructor must copy its input.
	good[1][2] = 999
	if b := p.Bandwidth(1, 2); b != 8 {
		t.Error("bandwidth matrix not copied")
	}

	bad := map[string][][]float64{
		"empty":         {},
		"ragged":        {{0, 1}, {1}},
		"zero-link":     {{0, 0}, {0, 0}},
		"negative":      {{0, -1}, {-1, 0}},
		"asymmetric":    {{0, 1}, {2, 0}},
		"infinite-link": {{0, math.Inf(1)}, {math.Inf(1), 0}},
	}
	for name, m := range bad {
		if _, err := NewWithBandwidth(m); err == nil {
			t.Errorf("%s bandwidth matrix accepted", name)
		}
	}
}

func TestCommTime(t *testing.T) {
	p, _ := NewWithBandwidth([][]float64{{0, 4}, {4, 0}})
	if got := p.CommTime(8, 0, 1); got != 2 {
		t.Errorf("CommTime(8, 0->1) = %g, want 2", got)
	}
	if got := p.CommTime(8, 1, 1); got != 0 {
		t.Errorf("local CommTime = %g, want 0", got)
	}
	if got := p.CommTime(0, 0, 1); got != 0 {
		t.Errorf("zero-data CommTime = %g, want 0", got)
	}
}

func TestNames(t *testing.T) {
	p := MustUniform(2)
	if n := p.Name(1); n != "P2" {
		t.Errorf("default name = %q, want P2", n)
	}
	p.SetName(1, "gpu-node")
	if n := p.Name(1); n != "gpu-node" {
		t.Errorf("name = %q, want gpu-node", n)
	}
	if n := p.Name(0); n != "P1" {
		t.Errorf("unset name = %q, want P1", n)
	}
}

func TestTwoClusters(t *testing.T) {
	p, err := TwoClusters(2, 3, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumProcs() != 5 {
		t.Fatalf("procs = %d, want 5", p.NumProcs())
	}
	// Intra-cluster links.
	if b := p.Bandwidth(0, 1); b != 4 {
		t.Errorf("intra A bandwidth = %g, want 4", b)
	}
	if b := p.Bandwidth(3, 4); b != 4 {
		t.Errorf("intra B bandwidth = %g, want 4", b)
	}
	// Inter-cluster links, both directions.
	if b := p.Bandwidth(1, 2); b != 0.5 {
		t.Errorf("inter bandwidth = %g, want 0.5", b)
	}
	if b := p.Bandwidth(4, 0); b != 0.5 {
		t.Errorf("inter bandwidth = %g, want 0.5", b)
	}
	// Cluster-aware naming.
	if p.Name(0) != "A1" || p.Name(2) != "B1" || p.Name(4) != "B3" {
		t.Errorf("names = %s %s %s", p.Name(0), p.Name(2), p.Name(4))
	}
	// Communication across clusters costs more.
	if local, remote := p.CommTime(8, 0, 1), p.CommTime(8, 0, 3); !(remote > local) {
		t.Errorf("inter comm %g not slower than intra %g", remote, local)
	}

	for _, bad := range []struct {
		s1, s2       int
		intra, inter float64
	}{
		{0, 3, 1, 1}, {3, 0, 1, 1}, {2, 2, 0, 1}, {2, 2, 1, -1},
	} {
		if _, err := TwoClusters(bad.s1, bad.s2, bad.intra, bad.inter); err == nil {
			t.Errorf("TwoClusters(%+v) accepted", bad)
		}
	}
}

func TestPlatformString(t *testing.T) {
	if s := MustUniform(3).String(); !strings.Contains(s, "procs: 3") || !strings.Contains(s, "uniform") {
		t.Errorf("String() = %q", s)
	}
	p, _ := NewWithBandwidth([][]float64{{0, 1}, {1, 0}})
	if s := p.String(); !strings.Contains(s, "per-pair") {
		t.Errorf("String() = %q", s)
	}
}

// TestNewWithBandwidthRaggedLaterRow is a regression test: a short row
// after a full one used to panic in the symmetry check instead of
// failing validation.
func TestNewWithBandwidthRaggedLaterRow(t *testing.T) {
	if _, err := NewWithBandwidth([][]float64{{0, 1}, {}}); err == nil {
		t.Fatal("ragged bandwidth matrix accepted")
	}
}
