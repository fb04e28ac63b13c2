package core

import (
	"bytes"
	"math/rand"
	"testing"

	"hdlts/internal/gen"
	"hdlts/internal/obs"
	"hdlts/internal/sched"
)

// traceCapBytes is the trace ring's per-trace byte cap: 4096 stored events'
// worth of decision state.
const traceCapBytes = 320 << 10

// ringSolve solves pr the way the server traces a request: the trace is
// started in a store, and the store's tracer is attached under the
// algorithm's name, next to extra when that is non-nil. It returns the
// stored trace.
func ringSolve(t *testing.T, pr *sched.Problem, extra obs.Tracer) *obs.Trace {
	t.Helper()
	ts := obs.NewTraceStore(1, 1)
	ts.Start("solve")
	h := New()
	if _, err := h.Schedule(pr.WithTracer(obs.Named(obs.Multi(ts.Tracer("solve"), extra), h.Name()))); err != nil {
		t.Fatal(err)
	}
	tr, ok := ts.Get("solve")
	if !ok {
		t.Fatal("trace evicted")
	}
	return tr
}

// TestTraceRingKeepsWholeIterations: a 10k-task traced solve outgrows the
// per-trace byte cap. The ring then keeps a prefix of whole iterations,
// byte-identical to the head of the full stream, and counts everything
// after it as dropped — whether the store is the solve's only sink or sits
// next to a collector that takes every event.
func TestTraceRingKeepsWholeIterations(t *testing.T) {
	pr, err := gen.Random(gen.Params{V: 10000, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2},
		rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	withCollector := ringSolve(t, pr, col)
	full := col.Events()
	for name, tr := range map[string]*obs.Trace{"store only": ringSolve(t, pr, nil), "store and collector": withCollector} {
		kept := len(tr.Events)
		if kept == 0 || tr.EventsDropped == 0 {
			t.Fatalf("%s: kept %d, dropped %d; want a non-empty cut trace", name, kept, tr.EventsDropped)
		}
		if kept+tr.EventsDropped != len(full) {
			t.Errorf("%s: kept %d + dropped %d != %d events in the full stream", name, kept, tr.EventsDropped, len(full))
		}
		if got, want := jsonlBytes(t, tr.Events), jsonlBytes(t, full[:kept]); !bytes.Equal(got, want) {
			t.Errorf("%s: ring stream is not the head of the full stream", name)
		}
		iters := 0
		for _, ev := range tr.Events {
			if ev.Type == obs.EvIteration {
				iters++
			}
		}
		if last, next := full[kept-1], full[kept]; last.Type != obs.EvCommit || last.Dup || next.Type != obs.EvPV || next.Iter != iters+1 {
			t.Errorf("%s: ring cut inside an iteration: %d whole iterations, last kept %+v, next %+v", name, iters, last, next)
		}
	}
}
