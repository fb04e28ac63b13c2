package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hdlts/internal/gen"
	"hdlts/internal/obs"
	"hdlts/internal/sched"
)

// optionSets are the HDLTS configurations every differential test runs:
// the paper's algorithm and each ablation/extension on its own.
var optionSets = []Options{
	{},
	{DisableDuplication: true},
	{Insertion: true},
	{PopulationSigma: true},
	{Lookahead: true},
}

// canonicalBytes serialises a completed schedule through the deterministic
// JSON codec: placements sorted by (proc, start, task), makespan included.
// Two schedules are equivalent for the property tests below iff these bytes
// are identical — the strongest comparison the codec supports, covering
// every placement (duplicates included) and every float bit-for-bit via the
// shortest-round-trip encoding.
func canonicalBytes(t *testing.T, s *sched.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteScheduleJSON(&buf, "HDLTS"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stepsMismatch describes the first difference between two Table-I traces,
// or returns "" when they are reflect.DeepEqual and every float is
// bit-identical (DeepEqual alone would equate -0 with +0).
func stepsMismatch(got, want []Step) string {
	if !reflect.DeepEqual(got, want) {
		if len(got) != len(want) {
			return fmt.Sprintf("%d steps vs %d", len(got), len(want))
		}
		for k := range got {
			if !reflect.DeepEqual(got[k], want[k]) {
				return fmt.Sprintf("step %d: %+v vs %+v", k+1, got[k], want[k])
			}
		}
	}
	for k := range got {
		for i := range got[k].PV {
			if math.Float64bits(got[k].PV[i]) != math.Float64bits(want[k].PV[i]) {
				return fmt.Sprintf("step %d: PV[%d] bits %g vs %g", k+1, i, got[k].PV[i], want[k].PV[i])
			}
		}
		for p := range got[k].EFT {
			if math.Float64bits(got[k].EFT[p]) != math.Float64bits(want[k].EFT[p]) {
				return fmt.Sprintf("step %d: EFT[%d] bits %g vs %g", k+1, p, got[k].EFT[p], want[k].EFT[p])
			}
		}
	}
	return ""
}

// dropEstimates forwards every event except EvEstimate: the reference
// oracle's substrate calls emit one per (task, processor) evaluation, which
// the indexed core never makes.
type dropEstimates struct{ obs.Tracer }

func (d dropEstimates) Emit(ev obs.Event) {
	if ev.Type != obs.EvEstimate {
		d.Tracer.Emit(ev)
	}
}

// eventStreams solves pr under o three times and returns each decision
// stream in JSONL form: the indexed core into a JSONL tracer, the indexed
// core into a TraceStore (rendered from the stored record on Get), and the
// reference oracle with its estimate events filtered out before the sink
// numbers them. The ring stream is complete unless the record outgrew the
// per-trace byte cap; dropped reports how many events the ring left out.
func eventStreams(t testing.TB, pr *sched.Problem, o Options) (indexed, ring []byte, dropped int, reference []byte) {
	t.Helper()
	var bi, br bytes.Buffer
	ji, jr := obs.NewJSONL(&bi), obs.NewJSONL(&br)
	h := NewWithOptions(o)
	if _, err := h.Schedule(pr.WithTracer(ji)); err != nil {
		t.Fatalf("indexed traced solve: %v", err)
	}
	ts := obs.NewTraceStore(1, 1)
	ts.Start("ring")
	if _, err := h.Schedule(pr.WithTracer(ts.Tracer("ring"))); err != nil {
		t.Fatalf("indexed ring-traced solve: %v", err)
	}
	if _, _, err := h.runReference(pr.WithTracer(dropEstimates{jr}), false); err != nil {
		t.Fatalf("reference traced solve: %v", err)
	}
	if err := ji.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, ok := ts.Get("ring")
	if !ok {
		t.Fatal("ring trace missing")
	}
	return bi.Bytes(), jsonlBytes(t, tr.Events), tr.EventsDropped, br.Bytes()
}

// jsonlLine is the JSONL wire form of an event as encoding/json renders
// it: the oracle internal/obs holds its encoder to, restated here because
// test files do not export.
type jsonlLine struct {
	Seq    uint64  `json:"seq"`
	Ev     string  `json:"ev"`
	Alg    string  `json:"alg,omitempty"`
	Task   int     `json:"task"`
	Proc   int     `json:"proc"`
	Iter   int     `json:"iter,omitempty"`
	Time   float64 `json:"t,omitempty"`
	Start  float64 `json:"start,omitempty"`
	Finish float64 `json:"finish,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Dup    bool    `json:"dup,omitempty"`
}

// jsonlBytes encodes events the way a JSONLSink streams them, by the
// encoding/json oracle.
func jsonlBytes(t testing.TB, evs []obs.Event) []byte {
	t.Helper()
	var b bytes.Buffer
	for i, ev := range evs {
		line, err := json.Marshal(jsonlLine{
			Seq: uint64(i + 1), Ev: ev.Type.String(), Alg: ev.Alg, Task: ev.Task, Proc: ev.Proc, Iter: ev.Iter,
			Time: ev.Time, Start: ev.Start, Finish: ev.Finish, Value: ev.Value, Dup: ev.Dup,
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// ringMismatch reports how a TraceStore-rendered stream departs from the
// full stream want: it must be want's first lines, whole, with the
// remainder counted as dropped. "" means it matches.
func ringMismatch(ring []byte, dropped int, want []byte) string {
	if !bytes.HasPrefix(want, ring) {
		return "ring stream is not a prefix of the full stream"
	}
	kept, total := bytes.Count(ring, []byte("\n")), bytes.Count(want, []byte("\n"))
	if kept+dropped != total {
		return fmt.Sprintf("ring kept %d and dropped %d events of %d", kept, dropped, total)
	}
	// A cut falls between iterations: after a task's commit, before the
	// next iteration's first pv event.
	if kept > 0 && dropped > 0 {
		lines := bytes.Split(want, []byte("\n"))
		last, next := lines[kept-1], lines[kept]
		if !bytes.Contains(last, []byte(`"ev":"commit"`)) || bytes.Contains(last, []byte(`"dup":true`)) ||
			!bytes.Contains(next, []byte(`"ev":"pv"`)) {
			return fmt.Sprintf("ring cut inside an iteration, after %s", last)
		}
	}
	return ""
}

// TestIndexedMatchesReferenceBytes is the seed-vs-indexed equivalence
// property: across ≥200 random DAG/platform pairs and every option
// combination, the indexed core (the one production engine) must produce
// a canonical schedule byte-identical to the reference oracle running in
// full-recompute mode — the literal Algorithm 1 loop. Byte identity
// means identical placements, identical duplicate decisions, and a
// bit-identical makespan; any floating-point reassociation in the indexed
// core's incremental EFT maintenance or batched σ would show up here. A
// traced solve's JSONL decision stream, and the stream a TraceStore renders
// from the same solve's stored record, must each equal the reference's
// with its estimate events removed, byte for byte.
func TestIndexedMatchesReferenceBytes(t *testing.T) {
	const pairs = 200
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < pairs; i++ {
		pr, err := randomProblem(rng)
		if err != nil {
			t.Fatalf("pair %d: generator: %v", i, err)
		}
		for _, o := range optionSets {
			indexed := NewWithOptions(o)
			si, err := indexed.Schedule(pr)
			if err != nil {
				t.Fatalf("pair %d opts %+v: indexed: %v", i, o, err)
			}
			sr, _, err := indexed.runReference(pr, true)
			if err != nil {
				t.Fatalf("pair %d opts %+v: reference: %v", i, o, err)
			}
			bi, br := canonicalBytes(t, si), canonicalBytes(t, sr)
			if !bytes.Equal(bi, br) {
				t.Fatalf("pair %d opts %+v: indexed and reference schedules differ\nindexed:\n%s\nreference:\n%s",
					i, o, bi, br)
			}
			// Extend on a schedule seeded with nothing is the same solve.
			sx := sched.NewSchedule(pr.Normalize())
			if err := indexed.Extend(sx); err != nil {
				t.Fatalf("pair %d opts %+v: extend: %v", i, o, err)
			}
			if bx := canonicalBytes(t, sx); !bytes.Equal(bi, bx) {
				t.Fatalf("pair %d opts %+v: an unseeded Extend differs from Schedule", i, o)
			}
			// Record capture, as explain attaches it, must be a pure
			// observer: the recorded solve's schedule stays byte-identical
			// to the unrecorded one.
			keep := new(obs.RecordKeeper)
			se, err := indexed.Schedule(pr.WithTracer(keep))
			if err != nil {
				t.Fatalf("pair %d opts %+v: recorded: %v", i, o, err)
			}
			if be := canonicalBytes(t, se); !bytes.Equal(bi, be) {
				t.Fatalf("pair %d opts %+v: capture changed the schedule", i, o)
			}
			if keep.Record().Len() == 0 {
				t.Fatalf("pair %d opts %+v: no decisions captured", i, o)
			}
			ei, ering, dropped, er := eventStreams(t, pr, o)
			if !bytes.Equal(ei, er) {
				t.Fatalf("pair %d opts %+v: indexed event stream differs from the reference without estimates\nindexed:\n%s\nreference:\n%s",
					i, o, ei, er)
			}
			if dropped != 0 || !bytes.Equal(ering, er) {
				t.Fatalf("pair %d opts %+v: trace-ring stream (%d dropped) differs from the reference without estimates\nring:\n%s\nreference:\n%s",
					i, o, dropped, ering, er)
			}
		}
	}
}

// TestScheduleIntoZeroAllocs pins the steady-state allocation contract: a
// solve stream that reuses the previous schedule's storage via ScheduleInto
// must not allocate at all — the arena comes from the pool, the schedule is
// reset in place, and every hot-path structure is preallocated. This is the
// same invariant the solver/hdlts/v10k_steady bench reports as allocs/op=0
// and the hdltsvet hotpathalloc rule guards statically.
func TestScheduleIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; allocs/op is meaningless under -race")
	}
	pr, err := gen.Random(gen.Params{
		V: 2000, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	s, err := h.Schedule(pr) // warm-up: binds the pool arena and the schedule
	if err != nil {
		t.Fatal(err)
	}
	want := s.Makespan()
	allocs := testing.AllocsPerRun(5, func() {
		s, err = h.ScheduleInto(pr, s)
		if err != nil {
			t.Fatal(err)
		}
	})
	if s.Makespan() != want {
		t.Fatalf("steady-state makespan drifted: %g != %g", s.Makespan(), want)
	}
	if allocs != 0 {
		t.Fatalf("ScheduleInto allocated %.1f times per solve, want 0", allocs)
	}
}
