// Command hdltsched schedules one workflow problem (JSON, as produced by
// cmd/dagen) with a chosen algorithm and reports the makespan, the paper's
// metrics, and optionally a Gantt chart or the HDLTS decision trace.
//
// Usage:
//
//	dagen -kind fft -m 8 | hdltsched -alg hdlts -gantt
//	hdltsched -alg heft -in problem.json
//	hdltsched -alg all -in problem.json        # compare all six algorithms
//	hdltsched -alg hdlts -trace -in problem.json
//	hdltsched -alg all -events ev.jsonl -chrome-trace trace.json -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"encoding/json"

	"hdlts/internal/core"
	"hdlts/internal/dag"
	"hdlts/internal/explain"
	"hdlts/internal/metrics"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/viz"
)

// options collects every CLI knob; tests drive run directly with one.
type options struct {
	Alg      string
	In       string
	Gantt    bool
	Trace    bool
	Validate bool
	Width    int
	SVG      string
	OutJSON  string
	Analyze  bool
	CP       bool
	// Events streams decision events as JSON Lines to this file.
	Events string
	// ChromeTrace writes a Chrome trace-event JSON (chrome://tracing /
	// Perfetto) with one process track per algorithm.
	ChromeTrace string
	// Stats dumps the runtime metrics registry (Prometheus text) to Err
	// after scheduling.
	Stats bool
	// Explain prints the schedule explainability report (placement
	// rationale, critical path, per-processor accounting) as JSON.
	Explain bool
	// Err receives -stats output and diagnostics (defaults to os.Stderr).
	Err io.Writer
}

func main() {
	var o options
	flag.StringVar(&o.Alg, "alg", "hdlts", "algorithm: the paper's six (hdlts|heft|cpop|pets|peft|sdbats), 'all' for those six, or an extended name (dheft|dls|dsc|ga|mct|minmin|maxmin)")
	flag.StringVar(&o.In, "in", "-", "input problem JSON file ('-' = stdin)")
	flag.BoolVar(&o.Gantt, "gantt", false, "print a Gantt chart")
	flag.BoolVar(&o.Trace, "trace", false, "print the HDLTS per-step trace (hdlts only)")
	flag.BoolVar(&o.Validate, "validate", true, "re-validate the schedule")
	flag.IntVar(&o.Width, "width", 72, "Gantt chart width in characters")
	flag.StringVar(&o.SVG, "svg", "", "write an SVG Gantt chart to this file (per-algorithm suffix with -alg all)")
	flag.StringVar(&o.OutJSON, "out", "", "write the schedule as JSON to this file (per-algorithm suffix with -alg all)")
	flag.BoolVar(&o.Analyze, "analyze", false, "print utilisation / communication analysis")
	flag.BoolVar(&o.CP, "cp", false, "print the minimum-cost critical path and the SLR lower bound")
	flag.StringVar(&o.Events, "events", "", "write decision events as JSON Lines to this file")
	flag.StringVar(&o.ChromeTrace, "chrome-trace", "", "write a Chrome trace-event JSON to this file")
	flag.BoolVar(&o.Stats, "stats", false, "print runtime metrics (Prometheus text) to stderr")
	flag.BoolVar(&o.Explain, "explain", false, "print the schedule explainability report as JSON (per-task rationale with hdlts)")
	flag.Parse()
	if err := run(os.Stdout, os.Stdin, o); err != nil {
		fmt.Fprintln(os.Stderr, "hdltsched:", err)
		os.Exit(1)
	}
}

// tracedAlgs lists the algorithms that produce a per-step decision trace
// for the -trace flag.
var tracedAlgs = []string{"hdlts"}

func run(out io.Writer, stdin io.Reader, o options) error {
	if o.Err == nil {
		o.Err = os.Stderr
	}
	if o.Trace && !traceSupported(o.Alg) {
		return fmt.Errorf("-trace is only available for algorithms with a decision trace (%s); "+
			"got -alg %s — use -alg %s, or -alg all to include it, or drop -trace (-events works with every algorithm)",
			strings.Join(tracedAlgs, ", "), o.Alg, tracedAlgs[0])
	}

	r := stdin
	if o.In != "-" {
		f, err := os.Open(o.In)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	pr, err := sched.ReadProblemJSON(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "problem: %d tasks, %d edges, %d processors\n", pr.NumTasks(), pr.G.NumEdges(), pr.NumProcs())
	if o.CP {
		if err := printCriticalPath(out, pr); err != nil {
			return err
		}
	}

	var algos []sched.Algorithm
	if strings.EqualFold(o.Alg, "all") {
		algos = registry.All()
	} else {
		a, err := registry.Get(o.Alg)
		if err != nil {
			return err
		}
		algos = append(algos, a)
	}

	// Observability sinks: JSONL events and/or a Chrome trace, fanned out
	// through one tracer attached per algorithm run.
	var sinks []obs.Tracer
	var jsonl *obs.JSONLSink
	if o.Events != "" {
		f, err := os.Create(o.Events)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonl = obs.NewJSONL(f)
		sinks = append(sinks, jsonl)
	}
	var chrome *obs.ChromeSink
	if o.ChromeTrace != "" {
		chrome = obs.NewChrome()
		names := make([]string, pr.NumProcs())
		for p := range names {
			names[p] = pr.P.Name(platform.Proc(p))
		}
		chrome.SetProcNames(names)
		sinks = append(sinks, chrome)
	}
	tracer := obs.Multi(sinks...)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tmakespan\tSLR\tspeedup\tefficiency\tduplicates")
	for _, a := range algos {
		// -explain reads each run's rationale from its kept decision record.
		keep, tr := new(obs.RecordKeeper), tracer
		if o.Explain {
			tr = obs.Multi(tracer, keep)
		}
		prA := pr
		if tr.Enabled() {
			prA = pr.WithTracer(obs.Named(tr, a.Name()))
		}
		var s *sched.Schedule
		if o.Trace && a.Name() == "HDLTS" {
			var steps []core.Step
			s, steps, err = core.New().ScheduleTrace(prA)
			if err != nil {
				return err
			}
			printTrace(out, steps)
		} else {
			s, err = a.Schedule(prA)
			if err != nil {
				return fmt.Errorf("%s: %w", a.Name(), err)
			}
		}
		if o.Validate {
			if err := s.Validate(); err != nil {
				return fmt.Errorf("%s: invalid schedule: %w", a.Name(), err)
			}
		}
		res, err := metrics.Evaluate(a.Name(), s)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.4f\t%.4f\t%.4f\t%d\n",
			res.Algorithm, res.Makespan, res.SLR, res.Speedup, res.Efficiency, res.Duplicates)
		if o.Gantt {
			tw.Flush()
			if err := s.WriteGantt(out, o.Width); err != nil {
				return err
			}
		}
		if o.Analyze {
			tw.Flush()
			an, err := s.Analyze()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s analysis:\n%s", a.Name(), an.String())
			slack, err := s.ComputeSlack()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "slack: total %.4g across %d tasks, %d critical\n",
				slack.TotalSlack, len(slack.Slack), len(slack.Critical))
		}
		if o.Explain {
			tw.Flush()
			rep, err := explain.Schedule(s, a.Name(), keep.Record())
			if err != nil {
				return err
			}
			b, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\n", b)
		}
		if o.SVG != "" {
			cfg := viz.GanttConfig{Title: fmt.Sprintf("%s — makespan %.4g", a.Name(), s.Makespan())}
			err := writeFile(perAlgPath(o.SVG, a.Name(), len(algos) > 1), func(w io.Writer) error {
				return viz.WriteGanttSVG(w, s, cfg)
			})
			if err != nil {
				return err
			}
		}
		if o.OutJSON != "" {
			err := writeFile(perAlgPath(o.OutJSON, a.Name(), len(algos) > 1), func(w io.Writer) error {
				return s.WriteScheduleJSON(w, a.Name())
			})
			if err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if jsonl != nil {
		if err := jsonl.Flush(); err != nil {
			return fmt.Errorf("writing %s: %w", o.Events, err)
		}
	}
	if chrome != nil {
		err := writeFile(o.ChromeTrace, func(w io.Writer) error { return chrome.WriteJSON(w) })
		if err != nil {
			return err
		}
	}
	if o.Stats {
		if err := obs.Default().WritePrometheus(o.Err); err != nil {
			return err
		}
	}
	return nil
}

// traceSupported reports whether -trace can honour the algorithm selection
// ("all" includes HDLTS, so it qualifies).
func traceSupported(alg string) bool {
	if strings.EqualFold(alg, "all") {
		return true
	}
	for _, a := range tracedAlgs {
		if strings.EqualFold(alg, a) {
			return true
		}
	}
	return false
}

// perAlgPath suffixes path with the algorithm name when several schedules
// are written.
func perAlgPath(path, alg string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + strings.ToLower(alg) + ext
}

// writeFile creates path and streams render into it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printCriticalPath reports the minimum-execution-cost critical path (the
// SLR denominator of Eq. 10).
func printCriticalPath(out io.Writer, pr *sched.Problem) error {
	node := func(t dag.TaskID) float64 {
		m, _ := pr.W.Min(int(t))
		return m
	}
	path, total, err := pr.G.CriticalPath(node, dag.ZeroEdges)
	if err != nil {
		return err
	}
	names := make([]string, len(path))
	for i, t := range path {
		if n := pr.G.Task(t).Name; n != "" {
			names[i] = n
		} else {
			names[i] = fmt.Sprintf("T%d", int(t)+1)
		}
	}
	_, err = fmt.Fprintf(out, "critical path (min costs): %s - lower bound %.6g\n",
		strings.Join(names, " -> "), total)
	return err
}

func printTrace(out io.Writer, steps []core.Step) {
	fmt.Fprintln(out, "HDLTS trace:")
	for i, st := range steps {
		var ready []string
		for j, t := range st.Ready {
			ready = append(ready, fmt.Sprintf("T%d(pv %.1f)", t+1, st.PV[j]))
		}
		dup := ""
		if st.Duplicated {
			dup = " +dup"
		}
		fmt.Fprintf(out, "  step %d: ready {%s} -> T%d on P%d (EFT %g)%s\n",
			i+1, strings.Join(ready, " "), st.Selected+1, st.Proc+1, st.EFT[st.Proc], dup)
	}
}
