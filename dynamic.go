package hdlts

import (
	"io"
	"math/rand"

	"hdlts/internal/dynamic"
	"hdlts/internal/viz"
)

// Online execution under uncertainty (the paper's future-work scenario,
// Section VI): run a workflow with realised costs that deviate from the
// planning estimates, optionally with processor failures, and compare the
// dynamic HDLTS policy against static deployments of offline plans.

type (
	// Uncertainty configures multiplicative run-time jitter on execution
	// and communication times.
	Uncertainty = dynamic.Uncertainty
	// Failure stops a processor from accepting new tasks at a given time.
	Failure = dynamic.Failure
	// Reality is one realised draw of actual costs and failures.
	Reality = dynamic.Reality
	// ExecutionResult is the outcome of one simulated online execution.
	ExecutionResult = dynamic.Result
	// OnlinePolicy decides task→processor assignments at run time.
	OnlinePolicy = dynamic.Policy
	// PolicySummary aggregates one policy's makespans over repeated runs.
	PolicySummary = dynamic.Summary
)

// NewReality draws realised costs for a (normalised) problem under the
// uncertainty model; every policy executed against the same Reality faces
// identical conditions.
func NewReality(pr *Problem, u Uncertainty, failures []Failure, rng *rand.Rand) (*Reality, error) {
	return dynamic.NewReality(pr, u, failures, rng)
}

// ExecuteOnline runs a workflow to completion under realised costs with the
// given policy.
func ExecuteOnline(r *Reality, pol OnlinePolicy) (*ExecutionResult, error) {
	return dynamic.Execute(r, pol)
}

// OnlineHDLTSPolicy returns the dynamic HDLTS rule replayed at run time.
func OnlineHDLTSPolicy() OnlinePolicy { return dynamic.OnlineHDLTS{} }

// StaticMappingPolicy deploys a completed offline schedule as a fixed
// task→processor mapping (with minimal failover on processor failure).
func StaticMappingPolicy(name string, s *Schedule) OnlinePolicy {
	return dynamic.NewStaticMapping(name, s)
}

// StaticOrderPolicy keeps an offline dispatch order but re-selects
// processors online by estimated EFT.
func StaticOrderPolicy(name string, s *Schedule) OnlinePolicy {
	return dynamic.NewStaticOrderDynamicEFT(name, s)
}

// WriteExecutionGanttSVG renders an online execution trace as an SVG Gantt
// chart with actual (realised) start and finish times.
func WriteExecutionGanttSVG(w io.Writer, pr *Problem, r *Reality, res *ExecutionResult, title string) error {
	return viz.WriteExecutionGanttSVG(w, pr, r.Exec, res.Proc, res.Finish, res.Makespan, viz.GanttConfig{Title: title})
}

// CompareUnderUncertainty executes the standard policy panel (online HDLTS,
// static HDLTS and HEFT deployments, HEFT order with dynamic EFT) over reps
// realities and returns per-policy summaries.
func CompareUnderUncertainty(pr *Problem, u Uncertainty, failures []Failure, reps int, rng *rand.Rand) ([]PolicySummary, error) {
	return dynamic.Compare(pr, u, failures, reps, rng)
}
