package main

import (
	"fmt"
	"math/rand"
	"time"

	"hdlts"
	"hdlts/internal/gen"
	"hdlts/internal/sched"
)

// solveBench is solve-v100k: the library call hdlts.NewHDLTS().Schedule on
// one seeded 100k-task problem with default options, no server.
type solveBench struct {
	pr       *sched.Problem
	alg      hdlts.Algorithm
	makespan float64
	cold     time.Duration
}

func (b *solveBench) generate(seed int64, _ time.Duration) (err error) {
	b.pr, err = gen.Random(perfParams(100000, 8), rand.New(rand.NewSource(seed)))
	return err
}

func (b *solveBench) prime(string) error { return nil }

// setup constructs the algorithm and runs its first solve. The first
// repetition's solve is the process's cold solve; every repetition must
// reproduce its makespan.
func (b *solveBench) setup(_ string, rep int) error {
	b.alg = hdlts.NewHDLTS()
	t0 := time.Now()
	sc, err := b.alg.Schedule(b.pr)
	if err != nil {
		return err
	}
	if rep == 0 {
		b.cold = time.Since(t0)
		b.makespan = sc.Makespan()
	} else if sc.Makespan() != b.makespan {
		return fmt.Errorf("set-up solve makespan %v, cold solve %v", sc.Makespan(), b.makespan)
	}
	return nil
}

func (b *solveBench) op(_ int, tr *tracer) opResult {
	a0 := heapAllocs()
	t0 := time.Now()
	h := tr.begin("core.solve")
	sc, err := b.alg.Schedule(b.pr)
	tr.end(h)
	lat := time.Since(t0)
	if tr != nil {
		tr.add("core.alloc_bytes", float64(heapAllocs()-a0))
		tr.add("core.solves", 1)
	}
	if err == nil && sc.Makespan() != b.makespan {
		err = fmt.Errorf("makespan %v, cold solve %v", sc.Makespan(), b.makespan)
	}
	return opResult{submit: lat, latency: lat, err: err}
}

func (b *solveBench) replay(_ int, tr *tracer) error {
	serial := hdlts.NewHDLTSWithOptions(hdlts.HDLTSOptions{MaxWorkers: 1})
	return tr.timed("core.solve_serial", func() error { _, err := serial.Schedule(b.pr); return err })
}

func (b *solveBench) beforeTraced() error { return nil }

func (b *solveBench) layers(tr *tracer, _ string) (map[string]float64, error) {
	extra := map[string]float64{"core.cold_solve_ms": ms(b.cold)}
	solveExtras(tr, extra)
	return extra, nil
}

func (b *solveBench) teardown() error       { return nil }
func (b *solveBench) setupReps() int        { return 5 }
func (b *solveBench) stride() int           { return 1 }
func (b *solveBench) service() *service     { return nil }
func (b *solveBench) opsPerSecond() float64 { return 2.3 }
