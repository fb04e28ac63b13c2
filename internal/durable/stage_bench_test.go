package durable_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hdlts/internal/durable"
	"hdlts/internal/gen"
	"hdlts/internal/jobs"
	"hdlts/internal/registry"
	"hdlts/internal/wire"
)

// benchJob builds a done job the size of a jobs-v100-mixed miss: the
// compact canonical form of a V=100, 4-processor problem (about 21 KB)
// and the compact schedule of its HDLTS solve (about 9 KB).
func benchJob(b *testing.B) *jobs.Job {
	b.Helper()
	pr, err := gen.Random(gen.Params{V: 100, Alpha: 1.5, Density: 3, CCR: 2, Procs: 4, WDAG: 80, Beta: 1.2},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	w := wire.GetWriter(false)
	defer w.Free()
	if err := pr.AppendJSON(w); err != nil {
		b.Fatal(err)
	}
	problem := bytes.Clone(w.Bytes())
	alg, err := registry.Get("hdlts")
	if err != nil {
		b.Fatal(err)
	}
	s, err := alg.Schedule(pr)
	if err != nil {
		b.Fatal(err)
	}
	var indented, result bytes.Buffer
	if err := s.WriteScheduleJSON(&indented, alg.Name()); err != nil {
		b.Fatal(err)
	}
	if err := json.Compact(&result, indented.Bytes()); err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	return &jobs.Job{ID: durable.NewID("j-"), Algorithm: alg.Name(), Hash: "h", TraceID: "trace-bench",
		Problem: problem, State: durable.Done, Attempts: 1, MaxAttempts: 3, Result: result.Bytes(),
		Seq: 1, SubmittedAt: now, StartedAt: now, FinishedAt: now}
}

// BenchmarkStagePut times staging the put line of a V=100 job, problem
// and result included, without the Flush that writes it: the line encode
// an owner does under its table lock. The staged lines are flushed every
// 16 (untimed), which keeps the batch buffer under the size a flush
// reuses. The workflow executor's patch line has its own bench,
// internal/exec's BenchmarkStagePatch, beside the payload type it writes.
func BenchmarkStagePut(b *testing.B) {
	j := benchJob(b)
	var mu sync.Mutex
	s, _, err := durable.Open[*jobs.Job](durable.Config{Dir: b.TempDir(), Key: durable.JobKey}, &mu)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.SetBytes(int64(len(j.Problem) + len(j.Result)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		s.Put(j)
		mu.Unlock()
		if i%16 == 15 {
			b.StopTimer()
			s.Flush()
			b.StartTimer()
		}
	}
}
