package viz

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hdlts/internal/core"
	"hdlts/internal/dynamic"
	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

func chart() *LineChart {
	return &LineChart{
		Title: "demo", XLabel: "CCR", YLabel: "SLR",
		X: []string{"1", "2", "3"},
		Series: []Series{
			{Name: "HDLTS", Y: []float64{1.2, 1.5, 1.9}},
			{Name: "HEFT", Y: []float64{1.3, 1.6, 2.0}},
		},
	}
}

func TestLineChartSVG(t *testing.T) {
	var buf bytes.Buffer
	if err := chart().WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "polyline", "HDLTS", "HEFT", "CCR", "SLR", "demo"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two series -> two polylines.
	if got := strings.Count(out, "<polyline"); got != 2 {
		t.Errorf("polylines = %d, want 2", got)
	}
	// 3 points × 2 series markers.
	if got := strings.Count(out, "<circle"); got != 6 {
		t.Errorf("markers = %d, want 6", got)
	}
}

func TestLineChartValidation(t *testing.T) {
	var buf bytes.Buffer
	empty := &LineChart{}
	if err := empty.WriteSVG(&buf); err == nil {
		t.Error("empty chart rendered")
	}
	bad := chart()
	bad.Series[0].Y = []float64{1}
	if err := bad.WriteSVG(&buf); err == nil {
		t.Error("length mismatch accepted")
	}
	nan := chart()
	nan.Series[0].Y[1] = math.NaN()
	if err := nan.WriteSVG(&buf); err == nil {
		t.Error("NaN accepted")
	}
	tiny := chart()
	tiny.Width, tiny.Height = 60, 40
	if err := tiny.WriteSVG(&buf); err == nil {
		t.Error("unusably small canvas accepted")
	}
}

func TestLineChartCIWhiskers(t *testing.T) {
	c := chart()
	c.Series[0].CI = []float64{0.1, 0.2, 0}
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	// Two whiskered points × 3 line segments each, plus axes/grid lines; a
	// zero CI draws nothing. Count the thin (width 1) whisker lines.
	if got := strings.Count(buf.String(), `stroke-width="1"`); got != 6 {
		t.Fatalf("whisker segments = %d, want 6", got)
	}
	bad := chart()
	bad.Series[0].CI = []float64{1}
	if err := bad.WriteSVG(&buf); err == nil {
		t.Fatal("CI length mismatch accepted")
	}
}

func TestLineChartSinglePointAndFlatSeries(t *testing.T) {
	var buf bytes.Buffer
	c := &LineChart{
		Title: "flat", XLabel: "x", YLabel: "y",
		X:      []string{"only"},
		Series: []Series{{Name: "s", Y: []float64{5}}},
	}
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatalf("single-point chart failed: %v", err)
	}
}

func TestEscape(t *testing.T) {
	if got := esc(`<&>"'`); got != "&lt;&amp;&gt;&quot;&apos;" {
		t.Fatalf("esc = %q", got)
	}
}

func TestGanttSVG(t *testing.T) {
	pr := workflows.PaperExample()
	s, err := core.New().Schedule(pr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGanttSVG(&buf, s, GanttConfig{Title: "HDLTS on Fig. 1"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "P1", "P2", "P3", "url(#dup)", "HDLTS on Fig. 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Gantt SVG missing %q", want)
		}
	}
	// 10 primary tasks + 2 duplicates = 12 boxes, plus the background rect
	// and the rect inside the hatch-pattern definition.
	if got := strings.Count(out, "<rect"); got != 14 {
		t.Errorf("rects = %d, want 14", got)
	}
}

func TestGanttSVGRejectsIncomplete(t *testing.T) {
	pr := workflows.PaperExample()
	var buf bytes.Buffer
	if err := WriteGanttSVG(&buf, sched.NewSchedule(pr), GanttConfig{}); err == nil {
		t.Fatal("incomplete schedule rendered")
	}
}

func barChart() *BarChart {
	return &BarChart{
		Title: "eff", XLabel: "CPUs", YLabel: "Efficiency",
		X: []string{"2", "4"},
		Series: []Series{
			{Name: "HDLTS", Y: []float64{0.9, 0.7}},
			{Name: "HEFT", Y: []float64{0.8, 0.75}, CI: []float64{0.05, 0}},
		},
	}
}

func TestBarChartSVG(t *testing.T) {
	var buf bytes.Buffer
	if err := barChart().WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "HDLTS", "HEFT", "CPUs", "Efficiency"} {
		if !strings.Contains(out, want) {
			t.Errorf("bar SVG missing %q", want)
		}
	}
	// 2 groups × 2 series bars + background + 2 legend swatches = 7 rects.
	if got := strings.Count(out, "<rect"); got != 7 {
		t.Errorf("rects = %d, want 7", got)
	}
}

func TestBarChartValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := (&BarChart{}).WriteSVG(&buf); err == nil {
		t.Error("empty bar chart rendered")
	}
	bad := barChart()
	bad.Series[0].Y = []float64{1}
	if err := bad.WriteSVG(&buf); err == nil {
		t.Error("length mismatch accepted")
	}
	neg := barChart()
	neg.Series[0].Y[0] = -1
	if err := neg.WriteSVG(&buf); err == nil {
		t.Error("negative bar accepted")
	}
	nan := barChart()
	nan.Series[1].Y[1] = math.NaN()
	if err := nan.WriteSVG(&buf); err == nil {
		t.Error("NaN accepted")
	}
	zero := barChart()
	zero.Series[0].Y = []float64{0, 0}
	zero.Series[1].Y = []float64{0, 0}
	zero.Series[1].CI = nil
	if err := zero.WriteSVG(&buf); err != nil {
		t.Errorf("all-zero chart should render: %v", err)
	}
}

func TestExecutionGanttSVG(t *testing.T) {
	pr := workflows.PaperExample().Normalize()
	r, err := dynamic.NewReality(pr, dynamic.Uncertainty{ExecJitter: 0.2}, nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dynamic.Execute(r, dynamic.OnlineHDLTS{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteExecutionGanttSVG(&buf, pr, r.Exec, res.Proc, res.Finish, res.Makespan, GanttConfig{Title: "online"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<svg") || !strings.Contains(out, "online") {
		t.Fatalf("execution Gantt malformed:\n%.200s", out)
	}
	// All ten real tasks are drawn as rects (plus background + pattern).
	if got := strings.Count(out, "<rect"); got != 12 {
		t.Errorf("rects = %d, want 12", got)
	}
}

func TestLaneChartValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := (&LaneChart{}).WriteSVG(&buf); err == nil {
		t.Error("empty lane chart rendered")
	}
	bad := &LaneChart{Lanes: []Lane{{Name: "P1", Spans: []Span{{Start: 5, End: 3}}}}}
	if err := bad.WriteSVG(&buf); err == nil {
		t.Error("inverted span accepted")
	}
	zero := &LaneChart{Lanes: []Lane{{Name: "P1"}}}
	if err := zero.WriteSVG(&buf); err == nil {
		t.Error("zero-extent chart rendered")
	}
}
