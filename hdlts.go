package hdlts

import (
	"context"
	"io"
	"math/rand"
	"time"

	"hdlts/internal/core"
	"hdlts/internal/dag"
	"hdlts/internal/gen"
	"hdlts/internal/jobs"
	"hdlts/internal/metrics"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/server"
	"hdlts/internal/viz"
	"hdlts/internal/workflows"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Graph is a directed acyclic application workflow.
	Graph = dag.Graph
	// TaskID identifies a task within a Graph.
	TaskID = dag.TaskID
	// Task is one schedulable workflow node.
	Task = dag.Task
	// Arc is a directed dependency as seen from one endpoint.
	Arc = dag.Arc
	// Platform is a heterogeneous processor set with a bandwidth model.
	Platform = platform.Platform
	// Proc identifies a processor within a Platform.
	Proc = platform.Proc
	// Costs is the task × processor execution-time matrix (W of Eq. 1).
	Costs = platform.Costs
	// Problem bundles a workflow, a platform, and a cost matrix.
	Problem = sched.Problem
	// Schedule is a mapping of tasks (and entry duplicates) onto processors.
	Schedule = sched.Schedule
	// Placement records where one copy of a task executes.
	Placement = sched.Placement
	// Algorithm is any workflow scheduler in this library.
	Algorithm = sched.Algorithm
	// Policy selects insertion- vs avail-based placement and entry
	// duplication during EST/EFT computation.
	Policy = sched.Policy
	// Result carries the paper's metrics for one schedule.
	Result = metrics.Result
	// GenParams parameterises the Table II random-graph generator.
	GenParams = gen.Params
	// CostParams parameterises cost assignment for fixed workflow structures.
	CostParams = gen.CostParams
	// HDLTSOptions tunes HDLTS ablation variants.
	HDLTSOptions = core.Options
	// TraceStep is one ITQ iteration of an HDLTS trace (Table I rows).
	TraceStep = core.Step
)

// Estimate is one (task, processor) evaluation: ready time, EST, and EFT.
// Custom schedulers obtain estimates via Schedule.Estimate / BestEFT and
// commit them with Schedule.Commit.
type Estimate = sched.Estimate

// NewGraph returns an empty workflow with capacity for n tasks.
func NewGraph(n int) *Graph { return dag.New(n) }

// NewSchedule returns an empty schedule for the problem — the entry point
// for implementing custom scheduling algorithms on this library's
// substrate: obtain per-processor estimates with Schedule.Estimate (under a
// Policy), commit them with Schedule.Commit, and finish with
// Schedule.Validate. See examples/customsched.
func NewSchedule(pr *Problem) *Schedule { return sched.NewSchedule(pr) }

// InsertionPolicy is the insertion-based placement policy (HEFT et al.).
var InsertionPolicy = sched.InsertionPolicy

// HDLTSPolicy is the paper's avail-based policy with entry duplication.
var HDLTSPolicy = sched.HDLTSPolicy

// NewUniformPlatform returns a fully connected platform of p processors
// with unit bandwidth (communication time equals edge data volume).
func NewUniformPlatform(p int) (*Platform, error) { return platform.NewUniform(p) }

// NewPlatformWithBandwidth returns a platform with the given symmetric
// pairwise bandwidth matrix.
func NewPlatformWithBandwidth(b [][]float64) (*Platform, error) {
	return platform.NewWithBandwidth(b)
}

// CostsFromRows builds a cost matrix from per-task rows (tasks × procs).
func CostsFromRows(rows [][]float64) (*Costs, error) { return platform.CostsFromRows(rows) }

// NewProblem validates and bundles a problem instance.
func NewProblem(g *Graph, p *Platform, w *Costs) (*Problem, error) {
	return sched.NewProblem(g, p, w)
}

// NewHDLTS returns the paper's scheduler in its published configuration.
func NewHDLTS() Algorithm { return core.New() }

// NewHDLTSWithOptions returns an HDLTS ablation variant (duplication off,
// insertion placement, population-σ penalty values).
func NewHDLTSWithOptions(o HDLTSOptions) Algorithm { return core.NewWithOptions(o) }

// ScheduleWithTrace runs HDLTS and returns the per-iteration trace — ready
// sets, penalty values, EFT vectors, selections — i.e. the rows of the
// paper's Table I.
func ScheduleWithTrace(pr *Problem) (*Schedule, []TraceStep, error) {
	return core.New().ScheduleTrace(pr)
}

// Algorithms returns HDLTS plus the five baselines (HEFT, PETS, CPOP, PEFT,
// SDBATS), each in its canonical published configuration.
func Algorithms() []Algorithm { return registry.All() }

// PaperModeAlgorithms returns the same six schedulers with uniform
// avail-based placement — the configuration under which the paper's
// comparison shape reproduces (see EXPERIMENTS.md).
func PaperModeAlgorithms() []Algorithm { return registry.PaperMode() }

// GetAlgorithm looks an algorithm up by case-insensitive name: the paper's
// six ("hdlts", "heft", "cpop", "pets", "peft", "sdbats") plus the extra
// reference schedulers ("dheft", "dls", "dsc", "ga", "mct", "minmin",
// "maxmin").
func GetAlgorithm(name string) (Algorithm, error) { return registry.Get(name) }

// Evaluate computes makespan, SLR, speedup, and efficiency for a completed
// schedule.
func Evaluate(algorithm string, s *Schedule) (Result, error) {
	return metrics.Evaluate(algorithm, s)
}

// SLR returns the Scheduling Length Ratio (Eq. 10) for a makespan on a
// problem.
func SLR(pr *Problem, makespan float64) (float64, error) { return metrics.SLR(pr, makespan) }

// Speedup returns Eq. 11 for a makespan on a problem.
func Speedup(pr *Problem, makespan float64) (float64, error) { return metrics.Speedup(pr, makespan) }

// Efficiency returns Eq. 12 for a makespan on a problem.
func Efficiency(pr *Problem, makespan float64) (float64, error) {
	return metrics.Efficiency(pr, makespan)
}

// RPD returns each makespan's Relative Percentage Deviation from the best
// one in the slice — the standard same-instance cross-algorithm comparison.
func RPD(makespans []float64) ([]float64, error) { return metrics.RPD(makespans) }

// RandomProblem generates a synthetic problem from the Table II parameter
// model; all randomness is drawn from rng.
func RandomProblem(p GenParams, rng *rand.Rand) (*Problem, error) { return gen.Random(p, rng) }

// RandomGraph generates only the DAG structure for the parameters.
func RandomGraph(p GenParams, rng *rand.Rand) (*Graph, error) { return gen.Graph(p, rng) }

// AssignCosts draws Eq. 13–14 costs for a fixed workflow structure.
func AssignCosts(g *Graph, c CostParams, rng *rand.Rand) (*Problem, error) {
	return gen.AssignCosts(g, c, rng)
}

// PaperExample returns the Fig. 1 instance (10 tasks, 3 processors); HDLTS
// schedules it with makespan 73, HEFT with 80.
func PaperExample() *Problem { return workflows.PaperExample() }

// FFTGraph returns the FFT workflow structure for m input points
// (2(m−1)+1 recursive + m·log₂m butterfly tasks).
func FFTGraph(m int) (*Graph, error) { return workflows.FFTGraph(m) }

// MontageGraph returns the n-task Montage workflow structure.
func MontageGraph(n int) (*Graph, error) { return workflows.MontageGraph(n) }

// MolDynGraph returns the fixed 41-task Molecular Dynamics workflow.
func MolDynGraph() *Graph { return workflows.MolDynGraph() }

// GaussianGraph returns the Gaussian-elimination workflow for an m×m
// matrix: (m²+m−2)/2 tasks.
func GaussianGraph(m int) (*Graph, error) { return workflows.GaussianGraph(m) }

// EpigenomicsGraph returns the Epigenomics pipeline workflow for the given
// number of parallel lanes: 4·lanes + 4 tasks.
func EpigenomicsGraph(lanes int) (*Graph, error) { return workflows.EpigenomicsGraph(lanes) }

// CyberShakeGraph returns the CyberShake seismic workflow for the given
// number of rupture variations: 2·vars + 4 tasks.
func CyberShakeGraph(vars int) (*Graph, error) { return workflows.CyberShakeGraph(vars) }

// LIGOGraph returns the LIGO Inspiral workflow for the given number of
// analysis blocks: 4·blocks + 2·ceil(blocks/3) tasks.
func LIGOGraph(blocks int) (*Graph, error) { return workflows.LIGOGraph(blocks) }

// TwoClusters returns a fully connected platform split into two clusters
// with distinct intra- and inter-cluster bandwidths.
func TwoClusters(size1, size2 int, intra, inter float64) (*Platform, error) {
	return platform.TwoClusters(size1, size2, intra, inter)
}

// AssignCostsOn is AssignCosts against an explicit (e.g. two-cluster)
// platform.
func AssignCostsOn(g *Graph, pl *Platform, c CostParams, rng *rand.Rand) (*Problem, error) {
	return gen.AssignCostsOn(g, pl, c, rng)
}

// ExtendedAlgorithms returns the paper's six schedulers plus the extra
// reference schedulers (DHEFT, DLS, DSC, GA, MCT, Min-Min, Max-Min).
func ExtendedAlgorithms() []Algorithm { return registry.Extended() }

// MergeGraphs combines several workflows into one multi-entry/exit graph
// for co-scheduling on a shared platform; offsets[i] is the ID shift of
// input i's tasks.
func MergeGraphs(graphs ...*Graph) (*Graph, []TaskID, error) { return dag.Merge(graphs...) }

// GraphStats summarises a workflow's structure (size, shape, degrees).
type GraphStats = dag.GraphStats

// ComputeStats derives GraphStats for an acyclic workflow.
func ComputeStats(g *Graph) (*GraphStats, error) { return dag.ComputeStats(g) }

// ReadDOT imports a workflow from the Graphviz-DOT subset this library
// emits (see dag.ReadDOT for the accepted grammar).
func ReadDOT(r io.Reader) (*Graph, error) { return dag.ReadDOT(r) }

// SlackReport carries per-task schedule float; see Schedule.ComputeSlack.
type SlackReport = sched.SlackReport

// Compact re-times a complete schedule as early as feasible while keeping
// every assignment and per-processor order; the result never has a larger
// makespan. (Schedules from the built-in algorithms are already tight;
// this is for externally produced or edited schedules.)
func Compact(s *Schedule) (*Schedule, error) { return s.Compact() }

// Analysis summarises a completed schedule (utilisation, load imbalance,
// communication volume); obtain one with Schedule.Analyze.
type Analysis = sched.Analysis

// WriteGanttSVG renders a completed schedule as an SVG Gantt chart.
func WriteGanttSVG(w io.Writer, s *Schedule, title string) error {
	return viz.WriteGanttSVG(w, s, viz.GanttConfig{Title: title})
}

// Observability re-exports. Attach a Tracer to a Problem with
// Problem.WithTracer to receive structured decision events from any
// scheduler or the online executor; see docs/OBSERVABILITY.md.
type (
	// Tracer receives structured scheduling events; implementations must be
	// safe for concurrent use. The default on every Problem is a no-op.
	Tracer = obs.Tracer
	// Event is one structured scheduling decision (iteration, PV, estimate,
	// commit, dispatch, completion, failure, drain, or replan).
	Event = obs.Event
	// EventType discriminates Event records.
	EventType = obs.EventType
	// Stats is a registry of counters, gauges, and timing histograms with
	// Prometheus-text and JSON exposition.
	Stats = obs.Registry
	// JSONLTracer streams events as JSON Lines (one object per line).
	JSONLTracer = obs.JSONLSink
	// ChromeTracer accumulates events into a Chrome trace-event JSON
	// (chrome://tracing / Perfetto): one process track per algorithm, one
	// thread lane per processor, one span per committed task execution.
	ChromeTracer = obs.ChromeSink
	// EventCollector buffers events in memory for tests and analysis.
	EventCollector = obs.Collector
)

// NopTracer is the guaranteed-allocation-free tracer every untraced
// Problem uses.
var NopTracer = obs.Nop

// NewJSONLTracer returns a tracer streaming events to w as JSON Lines.
// Call Flush when done.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONL(w) }

// NewChromeTracer returns a tracer accumulating a Chrome trace; render it
// with WriteJSON after scheduling.
func NewChromeTracer() *ChromeTracer { return obs.NewChrome() }

// NewEventCollector returns an in-memory event buffer.
func NewEventCollector() *EventCollector { return obs.NewCollector() }

// MultiTracer fans events out to several tracers.
func MultiTracer(ts ...Tracer) Tracer { return obs.Multi(ts...) }

// NamedTracer stamps un-attributed events with an algorithm name — use it
// when tracing several algorithms into one sink.
func NamedTracer(t Tracer, alg string) Tracer { return obs.Named(t, alg) }

// DefaultStats returns the process-wide metrics registry populated by the
// schedulers, the validator, the online executor, and the experiment
// runner.
func DefaultStats() *Stats { return obs.Default() }

// Span-tracing re-exports. Where Event records what a scheduler decided,
// a Span records how long one operation took and under which parent; the
// trace ID flows through context.Context so the HTTP layer, the job
// subsystem, and the scheduler all stamp the same correlation ID. See
// docs/OBSERVABILITY.md ("Correlating a request end-to-end").
type (
	// Span is one timed operation in a trace (trace ID, span ID, parent,
	// name, start/end, attributes).
	Span = obs.Span
	// Trace is one recorded trace: the span tree plus the decision events
	// captured while it was active.
	Trace = obs.Trace
	// TraceStore is the bounded in-memory ring of recent traces backing the
	// service's GET /v1/jobs/{id}/trace and GET /v1/traces/{id}.
	TraceStore = obs.TraceStore
	// RuntimeCollector polls runtime/metrics into a Stats registry
	// (goroutines, heap, GC pauses, scheduler latency).
	RuntimeCollector = obs.RuntimeCollector
	// BuildInfo identifies the running binary (module version, Go
	// toolchain, VCS revision).
	BuildInfo = obs.BuildInfo
)

// NewTraceStore returns a trace ring retaining capacity traces and
// recording one in every sample new trace IDs (sample <= 1 records all).
func NewTraceStore(capacity, sample int) *TraceStore { return obs.NewTraceStore(capacity, sample) }

// StartSpan begins a span under ctx's current span. It is free — nil span,
// no allocation — unless ctx carries a trace store (WithTraceStore) and a
// retained trace ID (WithTraceID); nil-span methods are safe no-ops.
func StartSpan(ctx context.Context, name string, attrs ...string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name, attrs...)
}

// WithTraceID returns ctx carrying the correlation ID every downstream
// span, job record, and decision event will stamp.
func WithTraceID(ctx context.Context, traceID string) context.Context {
	return obs.WithTraceID(ctx, traceID)
}

// TraceIDFrom returns the correlation ID carried by ctx, or "".
func TraceIDFrom(ctx context.Context) string { return obs.TraceIDFrom(ctx) }

// WithTraceStore returns ctx carrying the store StartSpan records into.
func WithTraceStore(ctx context.Context, ts *TraceStore) context.Context {
	return obs.WithTraceStore(ctx, ts)
}

// StartRuntimeTelemetry polls runtime/metrics into reg every interval
// under series named prefix_* (e.g. "hdltsd_runtime"); Stop the collector
// to end polling. A nil reg uses DefaultStats().
func StartRuntimeTelemetry(reg *Stats, prefix string, interval time.Duration) *RuntimeCollector {
	return obs.StartRuntime(reg, prefix, interval)
}

// ReadBuildInfo reports the running binary's identity from the build
// metadata the Go linker embedded.
func ReadBuildInfo() BuildInfo { return obs.ReadBuild() }

// Service re-exports. NewService returns the scheduler-as-a-service
// HTTP handler cmd/hdltsd serves — embed it in your own http.Server (or
// mount it under a prefix) to serve schedules next to other endpoints.
// See docs/SERVICE.md for endpoints and wire schemas.
type (
	// Service is the daemon's http.Handler: POST /v1/schedule, the
	// asynchronous /v1/jobs family (including GET /v1/jobs/{id}/trace),
	// GET /v1/algorithms, /v1/traces/{id}, /v1/version, /healthz, /readyz,
	// /metrics. Call Drain on SIGTERM and Shutdown to wait for in-flight
	// requests.
	Service = server.Server
	// ServiceConfig tunes workers, queue depth, per-request timeouts, body
	// limits, metrics registry, access logging, algorithm lookup, and the
	// job subsystem. The zero value serves with defaults.
	ServiceConfig = server.Config
	// ScheduleRequest is the POST /v1/schedule wire request.
	ScheduleRequest = server.ScheduleRequest
	// ScheduleResponse is the POST /v1/schedule wire response.
	ScheduleResponse = server.ScheduleResponse
)

// NewService builds the scheduling service handler from cfg. The error is
// the durable job store failing to open (unreadable or corrupt directory).
func NewService(cfg ServiceConfig) (*Service, error) { return server.New(cfg) }

// Asynchronous job re-exports. POST /v1/jobs decouples submission from
// execution: jobs survive daemon restarts via a write-ahead log when
// JobsConfig.Dir is set, identical problems are answered from a
// content-addressed result cache, and finished jobs expire after a TTL.
type (
	// Job is one asynchronous scheduling request and its lifecycle state.
	Job = jobs.Job
	// JobState is a job lifecycle phase: queued, running, done, failed, or
	// cancelled.
	JobState = jobs.State
	// JobsConfig tunes the job subsystem (ServiceConfig.Jobs): store
	// directory, attempt bound, TTL, cache size. Jobs run on the
	// service's one worker pool, sized by ServiceConfig.Workers and
	// QueueDepth.
	JobsConfig = jobs.Config
	// JobManager is the job subsystem behind /v1/jobs; reach it via
	// Service.Jobs for embedded submission without HTTP.
	JobManager = jobs.Manager
)

// CanonicalProblemHash returns the content address the job subsystem's
// result cache uses for one (algorithm, problem) pair: sha256 over the
// canonical algorithm name and the canonical problem serialisation.
func CanonicalProblemHash(algorithm string, pr *Problem) (string, error) {
	return server.CanonicalHash(algorithm, pr)
}
