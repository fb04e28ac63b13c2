package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hdlts/internal/core"
	"hdlts/internal/metrics"
	"hdlts/internal/obs"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/server"
)

// layerMetrics is every per-layer metric a traced run reports, in report
// order. A layer the workload never enters reads 0. Time metrics are self
// time per op unless the README says otherwise.
var layerMetrics = []struct{ name, unit string }{
	{"server.handler_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.request_decode_ms", "ms"},
	{"server.hash_ms", "ms"},
	{"server.response_encode_ms", "ms"},
	{"sched.decode_ms", "ms"},
	{"sched.canonical_encode_ms", "ms"},
	{"sched.encode_ms", "ms"},
	{"sched.validate_ms", "ms"},
	{"core.solve_traced_ms", "ms"},
	{"core.trace_events_per_op", "count"},
	{"core.solve_ms", "ms"},
	{"core.solve_serial_ms", "ms"},
	{"core.parallel_speedup", "ratio"},
	{"core.alloc_mb_per_solve", "MiB"},
	{"core.cold_solve_ms", "ms"},
	{"metrics.evaluate_ms", "ms"},
	{"obs.trace_kb_per_op", "KiB"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.coalesced_per_op", "count"},
	{"jobs.retries_per_op", "count"},
	{"jobs.wal_fsyncs_per_op", "count"},
	{"jobs.wal_fsync_ms", "ms"},
	{"jobs.replay_ms", "ms"},
	{"exec.decode_ms", "ms"},
	{"exec.compile_ms", "ms"},
	{"exec.plan_ms", "ms"},
	{"exec.dispatch_ms", "ms"},
	{"exec.queue_wait_ms", "ms"},
	{"exec.overhead_ms", "ms"},
	{"exec.step_ms", "ms"},
	{"exec.replans_per_op", "count"},
	{"exec.wal_fsyncs_per_op", "count"},
	{"exec.record_kb", "KiB"},
	{"exec.replay_ms", "ms"},
	{"client.latency_p90_ms", "ms"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
}

// spanMetric maps a span name to the per-layer metric its self time feeds.
// Spans absent here ("op", "replay") appear only in the printed table.
var spanMetric = map[string]string{
	"http":           "server.transport_ms",
	"server.handler": "server.handler_ms",
}

func metricOfSpan(name string) string {
	if m, ok := spanMetric[name]; ok {
		return m
	}
	for _, lm := range layerMetrics {
		if lm.name == name+"_ms" {
			return lm.name
		}
	}
	return ""
}

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory. The client goroutine and
// the server's handler goroutine both record into it, so every method
// locks; a nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	ops   int
	spans []span
	open  []int // indices of spans begun and not yet ended, innermost last

	// traces holds the one trace of the replayed traced solve.
	traces *obs.TraceStore
	// values accumulates per-layer figures that are not span times, such
	// as byte sizes and event counts; workloads divide them at the end.
	values map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), traces: obs.NewTraceStore(1, 1), values: map[string]float64{}}
}

// begin opens a span under the innermost open span and returns its handle.
func (t *tracer) begin(name string) int { return t.beginUnder("", name) }

// beginUnder is begin when the innermost open span is called parent (any
// span when parent is empty); otherwise it records nothing and returns -1.
func (t *tracer) beginUnder(parentName, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
		if parentName != "" && t.spans[t.open[n-1]].Name != parentName {
			return -1
		}
	} else if parentName != "" {
		return -1
	}
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: now})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[h].EndNs = now
	for k := len(t.open) - 1; k >= 0; k-- {
		if t.open[k] == h {
			t.open = append(t.open[:k], t.open[k+1:]...)
			break
		}
	}
}

// timed runs fn inside a span called name.
func (t *tracer) timed(name string, fn func() error) error {
	h := t.begin(name)
	err := fn()
	t.end(h)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// startOp opens the root span of op i; every span until endOp shares i.
func (t *tracer) startOp(i int) int {
	t.mu.Lock()
	t.op = i
	t.ops++
	t.mu.Unlock()
	return t.begin("op")
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.values[name] += v
	t.mu.Unlock()
}

// layerStat is one span name's totals over the traced phase.
type layerStat struct {
	calls       int
	self, total time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]*layerStat {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		p := t.spans[s.Parent-1]
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.calls++
		d := s.EndNs - s.StartNs
		st.total += time.Duration(d)
		st.self += time.Duration(max(d-covered[s.ID], 0))
	}
	return out
}

// writeSpans exports every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerReport builds the per-layer metrics from the span self times plus
// the workload's own figures, and prints the table.
func (t *tracer) layerReport(out io.Writer, workload string, extra map[string]float64) map[string]metric {
	stats := t.selfTimes()
	ops := float64(t.ops)
	values := map[string]float64{}
	for name, st := range stats {
		if m := metricOfSpan(name); m != "" {
			values[m] = ms(st.self) / ops
		}
	}
	for k, v := range extra {
		values[k] = v
	}
	res := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		res[lm.name] = metric{values[lm.name], lm.unit}
	}

	names := make([]string, 0, len(stats))
	var all time.Duration
	for n, st := range stats {
		names = append(names, n)
		all += st.self
	}
	sort.Slice(names, func(i, k int) bool { return stats[names[i]].self > stats[names[k]].self })
	fmt.Fprintf(out, "\nper-layer self time, traced phase of %s (%d ops)\n", workload, t.ops)
	fmt.Fprintf(out, "%-26s %10s %12s %12s %7s  %s\n", "span", "calls/op", "self ms/op", "total ms/op", "self%", "metric")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(out, "%-26s %10.2f %12.4f %12.4f %6.1f%%  %s\n", n, float64(st.calls)/ops,
			ms(st.self)/ops, ms(st.total)/ops, 100*float64(st.self)/float64(all), metricOfSpan(n))
	}
	fmt.Fprintf(out, "\n%-28s %14s  %s\n", "metric", "value", "unit")
	for _, lm := range layerMetrics {
		fmt.Fprintf(out, "%-28s %14.6g  %s\n", lm.name, values[lm.name], lm.unit)
	}
	fmt.Fprintf(out, "\ntracing overhead: untraced %.3f ops/s, traced %.3f ops/s (per second of op time), ratio %.4f\n",
		values["trace.untraced_ops_per_s"], values["trace.traced_ops_per_s"], values["trace.overhead_ratio"])
	return res
}

// Layer replays: after each traced op, its input goes through the public
// functions of the layers it crossed, each call in its own span.

// replaySubmit decodes one request envelope and its problem the way the
// server does. With canonical set it then canonicalises and hashes the
// problem, as job admission does; /v1/schedule does neither.
func replaySubmit(tr *tracer, body []byte, envelope any, problem func() json.RawMessage, canonical bool) (*sched.Problem, error) {
	err := tr.timed("server.request_decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(envelope)
	})
	if err != nil {
		return nil, err
	}
	var pr *sched.Problem
	err = tr.timed("sched.decode", func() (err error) {
		pr, err = sched.ReadProblemJSON(bytes.NewReader(problem()))
		return err
	})
	if err != nil || !canonical {
		return pr, err
	}
	var buf bytes.Buffer
	if err := tr.timed("sched.canonical_encode", func() error { return pr.WriteJSON(&buf) }); err != nil {
		return nil, err
	}
	// Admission hashes the canonical bytes it already holds, as
	// server.CanonicalHash does after its own encode: sha256 over the
	// algorithm name, a zero byte and the canonical problem, hex-encoded.
	h := tr.begin("server.hash")
	sum := sha256.New()
	sum.Write([]byte("HDLTS"))
	sum.Write([]byte{0})
	sum.Write(buf.Bytes())
	_ = hex.EncodeToString(sum.Sum(nil))
	tr.end(h)
	return pr, nil
}

// replaySolve runs the solve pipeline of /v1/schedule on pr: the untraced
// solve library users run (automatic and single worker, in alternating
// order so neither always runs on the other's warm caches), the traced
// solve the server runs, then validate, evaluate and both encoders.
func replaySolve(tr *tracer, pr *sched.Problem, traceID string) error {
	alg, err := registry.Get("hdlts")
	if err != nil {
		return err
	}
	var sc *sched.Schedule
	auto := func() error {
		a0 := heapAllocs()
		err := tr.timed("core.solve", func() (err error) { sc, err = alg.Schedule(pr); return err })
		tr.add("core.alloc_bytes", float64(heapAllocs()-a0))
		tr.add("core.solves", 1)
		return err
	}
	serial := func() error {
		one := core.NewWithOptions(core.Options{MaxWorkers: 1})
		return tr.timed("core.solve_serial", func() error { _, err := one.Schedule(pr); return err })
	}
	first, second := auto, serial
	if tr.ops%2 == 1 {
		first, second = serial, auto
	}
	if err := first(); err != nil {
		return err
	}
	if err := second(); err != nil {
		return err
	}
	tr.traces.Start(traceID)
	traced := pr.WithTracer(obs.Named(tr.traces.Tracer(traceID), alg.Name()))
	if err := tr.timed("core.solve_traced", func() error { _, err := alg.Schedule(traced); return err }); err != nil {
		return err
	}
	if t, ok := tr.traces.Get(traceID); ok {
		tr.add("core.trace_events", float64(len(t.Events)+t.EventsDropped))
	}
	if err := tr.timed("sched.validate", sc.Validate); err != nil {
		return err
	}
	var res metrics.Result
	err = tr.timed("metrics.evaluate", func() (err error) { res, err = metrics.Evaluate(alg.Name(), sc); return err })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tr.timed("sched.encode", func() error { return sc.WriteScheduleJSON(&buf, alg.Name()) }); err != nil {
		return err
	}
	return tr.timed("server.response_encode", func() error {
		_, err := json.Marshal(&server.ScheduleResponse{
			Algorithm: res.Algorithm, Tasks: pr.NumTasks(), Procs: pr.NumProcs(),
			Makespan: res.Makespan, SLR: res.SLR, Speedup: res.Speedup,
			Efficiency: res.Efficiency, Duplicates: res.Duplicates,
			Schedule: json.RawMessage(bytes.TrimSpace(buf.Bytes())),
		})
		return err
	})
}

// solveExtras turns the replayed solves' counts into per-layer figures.
func solveExtras(tr *tracer, extra map[string]float64) {
	ops := float64(tr.ops)
	stats := tr.selfTimes()
	if s := tr.values["core.solves"]; s > 0 {
		extra["core.alloc_mb_per_solve"] = tr.values["core.alloc_bytes"] / s / (1 << 20)
	}
	extra["core.trace_events_per_op"] = tr.values["core.trace_events"] / ops
	if a, s := stats["core.solve"], stats["core.solve_serial"]; a != nil && s != nil && a.total > 0 {
		extra["core.parallel_speedup"] = float64(s.total) / float64(a.total)
	}
}

// fetchTraceKiB reads the trace the server recorded for reqID; its size is
// obs.trace_kb_per_op.
func fetchTraceKiB(tr *tracer, svc *service, reqID string) error {
	code, body, err := svc.call(nil, "GET", "/v1/traces/"+reqID, "", nil)
	if err != nil {
		return err
	}
	if code != 200 {
		return fmt.Errorf("GET /v1/traces/%s: status %d", reqID, code)
	}
	tr.add("obs.trace_bytes", float64(len(body)))
	return nil
}
