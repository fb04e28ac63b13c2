package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// replanWorkflow draws an n-step workflow on 4 processors: a random DAG in
// which each step depends on up to two earlier ones, with a W row per step.
func replanWorkflow(n int) *Workflow {
	rng := rand.New(rand.NewSource(1))
	wf := &Workflow{Name: "bench", Procs: 4}
	for i := 0; i < n; i++ {
		st := Step{Name: fmt.Sprintf("s%d", i), Command: "true"}
		for p := 0; p < wf.Procs; p++ {
			st.Costs = append(st.Costs, float64(1+rng.Intn(20))/20)
		}
		for k := 0; k < 2 && i > 0; k++ {
			if dep := fmt.Sprintf("s%d", rng.Intn(i)); !slices.Contains(st.Depends, dep) {
				st.Depends = append(st.Depends, dep)
			}
		}
		wf.Steps = append(wf.Steps, st)
	}
	return wf
}

// BenchmarkReplan times one re-plan of a planned workflow whose first pass
// has started a step on each processor it could: every other step is
// pending and re-mapped behind the running ones.
func BenchmarkReplan(b *testing.B) {
	for _, n := range []int{40, 1000} {
		b.Run(fmt.Sprintf("steps=%d", n), func(b *testing.B) {
			e := simEngine(b)
			rec, pr, order := simRecord(b, e, replanWorkflow(n))
			c := newRunCore(e, rec, pr, order, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
			c.pass(0)
			if c.running == 0 {
				b.Fatal("the first pass started nothing")
			}
			c.reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.replan(0.01, "bench")
				c.reset()
			}
		})
	}
}
