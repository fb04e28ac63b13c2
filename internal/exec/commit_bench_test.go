package exec

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hdlts/internal/durable"
	"hdlts/internal/obs"
)

// benchRecord builds a running 40-step record on 4 processors, about the
// size of a workflow-v40 record: a random DAG with a W row per step.
func benchRecord(rng *rand.Rand) *Record {
	const n, procs = 40, 4
	wf := &Workflow{Name: "bench", Procs: procs}
	rec := &Record{ID: durable.NewID("wf-"), Name: wf.Name, TraceID: "trace-bench", Spec: wf,
		State: Running, SubmittedAt: time.Now(), StartedAt: time.Now()}
	for i := 0; i < n; i++ {
		st := Step{Name: fmt.Sprintf("t%d", i), Command: "true"}
		for p := 0; p < procs; p++ {
			st.Costs = append(st.Costs, 0.1+rng.Float64())
		}
		for j := max(0, i-6); j < i; j++ {
			if rng.Intn(3) == 0 {
				st.Depends = append(st.Depends, fmt.Sprintf("t%d", j))
			}
		}
		wf.Steps = append(wf.Steps, st)
		p := rng.Intn(procs)
		rec.Steps = append(rec.Steps, StepStatus{Name: st.Name, State: StepPending,
			PlannedProc: p, Proc: p, EstSeconds: st.Costs[p]})
	}
	return rec
}

// BenchmarkCommit times one run-loop pass's commit of a 40-step record
// to a durable store: staging its WAL line and the Flush that writes and
// fsyncs it, with the compactions the WAL's growth triggers. Each pass
// changes 8 steps and adds one observed W entry, and every 40 passes a
// fresh record starts (untimed), so observed_w stays as long as in a real
// run. "patch" is the executor's commit; "put" writes the whole record
// each pass instead, as commits did before patch lines. walB/op is the
// WAL bytes one commit writes, averaged over the commits that did not
// compact.
func BenchmarkCommit(b *testing.B) {
	for _, mode := range []string{"patch", "put"} {
		b.Run(mode, func(b *testing.B) {
			dir := b.TempDir()
			e, err := Open(Config{Dir: dir, Metrics: obs.NewRegistry()})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close(context.Background())
			walSize := func() int64 {
				st, err := os.Stat(filepath.Join(dir, "wal.jsonl"))
				if err != nil {
					b.Fatal(err)
				}
				return st.Size()
			}
			rng := rand.New(rand.NewSource(1))
			var rec *Record
			var delta *passDelta
			var size, written, measured int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%40 == 0 {
					b.StopTimer()
					rec = benchRecord(rng)
					e.mu.Lock()
					rec.Seq = e.store.NextSeq()
					e.store.Put(rec)
					e.mu.Unlock()
					e.store.Flush()
					delta = newPassDelta(rec)
					size = walSize()
					b.StartTimer()
				}
				now := time.Now()
				e.mu.Lock()
				for k := 0; k < 8; k++ {
					j := (i*8 + k) % len(rec.Steps)
					st := &rec.Steps[j]
					st.State, st.Attempts, st.StartedAt = StepRunning, st.Attempts+1, now
					delta.step(j)
				}
				rec.ObservedW = append(rec.ObservedW, WEntry{Step: rec.Steps[i%40].Name, Task: i % 40,
					Proc: rec.Steps[i%40].Proc, Seconds: 0.002})
				e.mu.Unlock()
				if mode == "patch" {
					e.commit(rec, delta)
				} else {
					e.mu.Lock()
					e.store.Put(rec)
					e.mu.Unlock()
					e.store.Flush()
				}
				b.StopTimer()
				// A commit that compacted truncated its own line away; the
				// others show theirs.
				if n := walSize(); n >= size {
					written += n - size
					measured++
					size = n
				} else {
					size = n
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(written)/float64(max(measured, 1)), "walB/op")
		})
	}
}

// BenchmarkStagePatch times staging one patch line of a running 40-step
// record, without the Flush that writes it: the line encode a run-loop
// commit does under the engine lock. Each line carries 8 changed steps
// and 8 observed W entries; the staged lines are flushed every 256
// (untimed).
func BenchmarkStagePatch(b *testing.B) {
	e, err := Open(Config{Dir: b.TempDir(), Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close(context.Background())
	rec := benchRecord(rand.New(rand.NewSource(1)))
	now := time.Now()
	changed := make([]bool, len(rec.Steps))
	for j := 0; j < 8; j++ {
		st := &rec.Steps[5*j]
		st.State, st.Attempts, st.StartedAt = StepRunning, 1, now
		changed[5*j] = true
		rec.ObservedW = append(rec.ObservedW, WEntry{Step: st.Name, Task: 5 * j, Proc: st.Proc, Seconds: 0.002})
	}
	e.mu.Lock()
	rec.Seq = e.store.NextSeq()
	e.store.Put(rec)
	e.mu.Unlock()
	e.store.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.mu.Lock()
		e.store.Patch(rec, rec.patch(changed, 0))
		e.mu.Unlock()
		if i%256 == 255 {
			b.StopTimer()
			e.store.Flush()
			b.StartTimer()
		}
	}
}
