package viz

import (
	"fmt"
	"io"

	"hdlts/internal/dag"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// GanttConfig tunes the SVG Gantt rendering.
type GanttConfig struct {
	// Width is the canvas width in px (default 900).
	Width int
	// RowHeight is the per-processor lane height in px (default 36).
	RowHeight int
	// Title is drawn above the chart.
	Title string
}

// WriteGanttSVG renders a completed schedule as an SVG Gantt chart: one lane
// per processor, one rectangle per task copy (duplicates hatched), labelled
// with task names where space allows.
func WriteGanttSVG(w io.Writer, s *sched.Schedule, cfg GanttConfig) error {
	if !s.Complete() {
		return fmt.Errorf("viz: cannot render an incomplete schedule")
	}
	pr := s.Problem()
	c := LaneChart{Title: cfg.Title, Width: cfg.Width, RowHeight: cfg.RowHeight, Makespan: s.Makespan()}
	for p := 0; p < pr.NumProcs(); p++ {
		lane := Lane{Name: pr.P.Name(platform.Proc(p))}
		for _, sl := range s.ProcSlots(platform.Proc(p)) {
			if sl.Dur() == 0 {
				continue
			}
			lane.Spans = append(lane.Spans, Span{
				Start: sl.Start, End: sl.End,
				Label: taskLabel(pr, sl.Task, sl.Duplicate),
				Color: int(sl.Task),
				Hatch: sl.Duplicate,
			})
		}
		c.Lanes = append(c.Lanes, lane)
	}
	return c.WriteSVG(w)
}

// WriteExecutionGanttSVG renders an online execution trace (package
// dynamic's Result) as an SVG Gantt chart: task t ran on proc[t], finished
// at finish[t] and took exec(t, proc[t]), its realised duration there.
func WriteExecutionGanttSVG(w io.Writer, pr *sched.Problem, exec func(dag.TaskID, platform.Proc) float64, proc []platform.Proc, finish []float64, makespan float64, cfg GanttConfig) error {
	c := LaneChart{Title: cfg.Title, Width: cfg.Width, RowHeight: cfg.RowHeight, Makespan: makespan}
	lanes := make([]Lane, pr.NumProcs())
	for p := range lanes {
		lanes[p].Name = pr.P.Name(platform.Proc(p))
	}
	for task, p := range proc {
		if int(p) < 0 || int(p) >= len(lanes) {
			return fmt.Errorf("viz: task %d ran on unknown processor %d", task, p)
		}
		end := finish[task]
		start := end - exec(dag.TaskID(task), p)
		if end == start {
			continue
		}
		lanes[p].Spans = append(lanes[p].Spans, Span{
			Start: start, End: end,
			Label: taskLabel(pr, dag.TaskID(task), false),
			Color: task,
		})
	}
	c.Lanes = lanes
	return c.WriteSVG(w)
}

func taskLabel(pr *sched.Problem, t dag.TaskID, dup bool) string {
	name := pr.G.Task(t).Name
	if name == "" {
		name = fmt.Sprintf("T%d", int(t)+1)
	}
	if dup {
		name += "*"
	}
	return name
}
