package registry

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hdlts/internal/obs"
	"hdlts/internal/workflows"
)

func TestNamesStable(t *testing.T) {
	want := []string{"hdlts", "heft", "pets", "cpop", "peft", "sdbats"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
	// Callers must not be able to corrupt the order.
	got[0] = "corrupted"
	if Names()[0] != "hdlts" {
		t.Fatal("Names returned shared backing storage")
	}
}

func TestExtendedPool(t *testing.T) {
	algs := Extended()
	if len(algs) != 13 {
		t.Fatalf("Extended pool has %d algorithms, want 13", len(algs))
	}
	names := map[string]bool{}
	for _, a := range algs {
		names[a.Name()] = true
	}
	for _, want := range []string{"HDLTS", "HEFT", "DLS", "MCT", "MinMin", "MaxMin", "DHEFT", "DSC", "GA"} {
		if !names[want] {
			t.Errorf("Extended pool missing %s", want)
		}
	}
	if got := len(ExtendedNames()); got != 13 {
		t.Errorf("ExtendedNames = %d entries, want 13", got)
	}
	pr := workflows.PaperExample()
	for _, a := range algs[6:] { // the four extras
		s, err := a.Schedule(pr)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
	}
}

func TestGetCaseInsensitive(t *testing.T) {
	for _, name := range []string{"HDLTS", "hdlts", " Heft ", "SDBATS", "dls", "MinMin"} {
		a, err := Get(name)
		if err != nil {
			t.Errorf("Get(%q): %v", name, err)
			continue
		}
		if a == nil {
			t.Errorf("Get(%q) returned nil", name)
		}
	}
	if _, err := Get("nope"); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("Get(nope) = %v", err)
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on unknown name did not panic")
		}
	}()
	MustGet("bogus")
}

func TestAllAndPaperModeSchedule(t *testing.T) {
	pr := workflows.PaperExample()
	for _, pool := range [][]string{{"canonical"}, {"paper"}} {
		algs := All()
		if pool[0] == "paper" {
			algs = PaperMode()
		}
		if len(algs) != 6 {
			t.Fatalf("%s pool has %d algorithms", pool[0], len(algs))
		}
		seen := map[string]bool{}
		for _, a := range algs {
			if seen[a.Name()] {
				t.Fatalf("%s pool has duplicate %q", pool[0], a.Name())
			}
			seen[a.Name()] = true
			s, err := a.Schedule(pr)
			if err != nil {
				t.Fatalf("%s/%s: %v", pool[0], a.Name(), err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", pool[0], a.Name(), err)
			}
		}
	}
}

func TestPaperModeHDLTSUnchanged(t *testing.T) {
	// HDLTS itself is identical in both modes (it is already avail-based);
	// verify by makespan on the example.
	pr := workflows.PaperExample()
	for _, a := range PaperMode() {
		if a.Name() == "HDLTS" {
			s, err := a.Schedule(pr)
			if err != nil {
				t.Fatal(err)
			}
			if s.Makespan() != 73 {
				t.Fatalf("paper-mode HDLTS makespan = %g, want 73", s.Makespan())
			}
		}
	}
}

// TestSolveTimerOnePerSchedule pins the solver timing series: each
// algorithm's Schedule call adds exactly one phase="schedule" sample under
// its own name, and the exposition carries no other phase value.
func TestSolveTimerOnePerSchedule(t *testing.T) {
	obs.Default().Reset()
	defer obs.Default().Reset()
	pr := workflows.PaperExample()
	for _, a := range Extended() {
		for call := 1; call <= 2; call++ {
			if _, err := a.Schedule(pr); err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			if got := solveCounts(t)[a.Name()]; got != call {
				t.Errorf("%s: %d schedule samples after %d calls", a.Name(), got, call)
			}
		}
	}
}

var solveCountLine = regexp.MustCompile(`^` + obs.MetricSolverPhase + `_count\{alg="([^"]+)",phase="([^"]+)"\} (\d+)$`)

// solveCounts reads the default registry's exposition and returns the
// solve sample count per algorithm, failing on any phase but "schedule".
func solveCounts(t *testing.T) map[string]int {
	t.Helper()
	var b bytes.Buffer
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, obs.MetricSolverPhase) {
			continue
		}
		if !strings.Contains(line, `phase="schedule"`) {
			t.Fatalf("exposition carries a phase other than schedule: %s", line)
		}
		if m := solveCountLine.FindStringSubmatch(line); m != nil {
			n, err := strconv.Atoi(m[3])
			if err != nil {
				t.Fatal(err)
			}
			counts[m[1]] = n
		}
	}
	return counts
}
