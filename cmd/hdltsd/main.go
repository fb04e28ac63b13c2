// Command hdltsd serves the scheduling library over HTTP: a long-running
// daemon that maps workflow problems to schedules on demand.
//
//	hdltsd -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/schedule \
//	    -d '{"algorithm":"hdlts","problem":'"$(dagen -kind example)"'}'
//	curl -s localhost:8080/metrics          # Prometheus text
//
// POST /v1/schedule accepts {"algorithm": name, "problem": <problem JSON>,
// "trace": bool} — the problem subobject is exactly what cmd/dagen emits —
// and returns the schedule, makespan, SLR/speedup/efficiency, and
// optionally the decision-event stream. POST /v1/jobs takes the same
// problem asynchronously, solved on the same -workers/-queue pool: poll
// GET /v1/jobs/{id} for the result, cancel with DELETE. With -jobs-dir
// set, jobs survive crashes and restarts via a write-ahead log, and
// identical resubmissions are answered from a content-addressed result
// cache. See docs/SERVICE.md for the full endpoint and schema reference.
//
// POST /v1/workflows goes one step further than planning: it accepts a
// declarative YAML workflow definition (the same file cmd/hdltsrun takes),
// plans it with HDLTS, and actually executes the step commands, re-mapping
// the remaining steps when observed durations drift from their estimates.
// With -workflows-dir set, unfinished workflows survive a crash and resume
// on restart without re-running completed steps. See docs/EXECUTION.md.
//
// Every response carries an X-Request-ID (the client's, when well-formed;
// generated otherwise) that doubles as the trace ID: the access log, the
// persisted job record, and the span/decision-event trace behind
// GET /v1/jobs/{id}/trace and GET /v1/traces/{id} all share it. Runtime
// telemetry (goroutines, heap, GC pauses, scheduler latency) is polled
// into the hdltsd_runtime_* gauges, and -debug-addr opens a separate
// localhost pprof/expvar listener. See docs/OBSERVABILITY.md.
//
// The daemon is drain-aware: SIGTERM/SIGINT flips /readyz to 503, stops
// admitting schedule requests, finishes everything in flight, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hdlts/internal/exec"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
	"hdlts/internal/server"
)

// options collects every CLI knob; tests drive run directly with one.
type options struct {
	Addr         string
	Workers      int
	Queue        int
	Timeout      time.Duration
	MaxBody      int64
	DrainTimeout time.Duration
	Quiet        bool
	JobsDir      string
	JobsTTL      time.Duration
	// WorkflowsDir is the durable workflow store; empty = workflows are
	// memory-only and do not survive restarts.
	WorkflowsDir string
	// DebugAddr, when non-empty, serves net/http/pprof and expvar on a
	// second listener. Off by default: profiles expose process internals
	// and belong on localhost, never on the service port.
	DebugAddr string
	// TraceBuffer / TraceSample tune the in-memory trace ring behind
	// GET /v1/jobs/{id}/trace and GET /v1/traces/{id}.
	TraceBuffer int
	TraceSample int
	// RuntimeInterval paces the runtime/metrics poller feeding the
	// hdltsd_runtime_* gauges; 0 disables the collector.
	RuntimeInterval time.Duration
	// StreamBuffer is the per-subscriber event buffer on the SSE endpoints;
	// a subscriber that falls further behind loses oldest events first.
	StreamBuffer int
	// StreamHeartbeat paces the SSE keepalive comments that hold idle
	// streams open through proxies.
	StreamHeartbeat time.Duration
	// Ready, when set, receives the bound listen address once the daemon
	// accepts connections (test hook).
	Ready func(addr string)
	// DebugReady mirrors Ready for the debug listener.
	DebugReady func(addr string)
}

func main() {
	var o options
	version := flag.Bool("version", false, "print build information and exit")
	flag.StringVar(&o.Addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.Workers, "workers", 0, "solve workers shared by /v1/schedule and /v1/jobs (0 = GOMAXPROCS)")
	flag.IntVar(&o.Queue, "queue", 64, "solve queue depth shared by /v1/schedule and /v1/jobs; beyond it requests get 429")
	flag.DurationVar(&o.Timeout, "timeout", 30*time.Second, "per-request deadline (queue wait + scheduling)")
	flag.Int64Var(&o.MaxBody, "max-body", 8<<20, "maximum request body bytes")
	flag.DurationVar(&o.DrainTimeout, "drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests")
	flag.BoolVar(&o.Quiet, "q", false, "suppress access logs")
	flag.StringVar(&o.JobsDir, "jobs-dir", "", "durable job store directory; empty = jobs do not survive restarts")
	flag.DurationVar(&o.JobsTTL, "jobs-ttl", time.Hour, "how long finished jobs stay queryable before garbage collection")
	flag.StringVar(&o.WorkflowsDir, "workflows-dir", "", "durable workflow store directory; empty = workflows do not survive restarts")
	flag.StringVar(&o.DebugAddr, "debug-addr", "", "pprof/expvar listen address (e.g. localhost:6060); empty = disabled")
	flag.IntVar(&o.TraceBuffer, "trace-buffer", 512, "request traces retained in memory for the trace endpoints")
	flag.IntVar(&o.TraceSample, "trace-sample", 1, "record one in N scheduling requests into the trace ring")
	flag.DurationVar(&o.RuntimeInterval, "runtime-interval", 10*time.Second, "runtime telemetry poll interval; 0 = disabled")
	flag.IntVar(&o.StreamBuffer, "stream-buffer", obs.DefaultStreamBuffer, "per-subscriber SSE event buffer; slow subscribers drop oldest events beyond it")
	flag.DurationVar(&o.StreamHeartbeat, "stream-heartbeat", 15*time.Second, "SSE keepalive interval on the event-stream endpoints")
	flag.Parse()
	if *version {
		info := obs.ReadBuild()
		fmt.Printf("hdltsd %s %s", info.Version, info.GoVersion)
		if info.Revision != "" {
			fmt.Printf(" %s", info.Revision)
			if info.Modified {
				fmt.Print(" (modified)")
			}
		}
		fmt.Println()
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "hdltsd:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then drains and exits. It owns the
// whole daemon lifecycle so tests can exercise it end to end.
func run(ctx context.Context, o options) error {
	var access *slog.Logger
	if !o.Quiet {
		access = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv, err := server.New(server.Config{
		Workers:         o.Workers,
		QueueDepth:      o.Queue,
		RequestTimeout:  o.Timeout,
		MaxBodyBytes:    o.MaxBody,
		AccessLog:       access,
		TraceBuffer:     o.TraceBuffer,
		TraceSample:     o.TraceSample,
		StreamBuffer:    o.StreamBuffer,
		StreamHeartbeat: o.StreamHeartbeat,
		Jobs: jobs.Config{
			Dir: o.JobsDir,
			TTL: o.JobsTTL,
		},
		Workflows: exec.Config{
			Dir: o.WorkflowsDir,
		},
	})
	if err != nil {
		return err
	}
	if o.RuntimeInterval > 0 {
		rc := obs.StartRuntime(nil, "hdltsd_runtime", o.RuntimeInterval)
		defer rc.Stop()
	}
	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if access != nil {
		access.Info("listening", "addr", ln.Addr().String())
	}
	if o.Ready != nil {
		o.Ready(ln.Addr().String())
	}

	// The debug listener is independent of the service lifecycle: it serves
	// profiles during drain (often exactly when you want them) and is
	// closed — and its serve goroutine joined — on the way out.
	var debugSrv *http.Server
	debugErr := make(chan error, 1)
	if o.DebugAddr != "" {
		dln, err := net.Listen("tcp", o.DebugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{
			Handler:           server.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		if access != nil {
			access.Info("debug listening", "addr", dln.Addr().String())
		}
		if o.DebugReady != nil {
			o.DebugReady(dln.Addr().String())
		}
		go func() { debugErr <- debugSrv.Serve(dln) }()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Drain: stop advertising readiness first, then let the http.Server
	// wait for in-flight handlers (whose pool jobs run to completion),
	// then retire the worker pool.
	if access != nil {
		access.Info("draining", "timeout", o.DrainTimeout.String())
	}
	srv.Drain()
	drainCtx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	if debugSrv != nil {
		_ = debugSrv.Close()
		<-debugErr // join the debug serve goroutine
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if access != nil {
		access.Info("exited cleanly")
	}
	return nil
}
