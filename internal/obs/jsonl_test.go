package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"hdlts/internal/wire"
)

// lineEvent is the JSONL wire form of an Event as encoding/json renders
// it: the oracle AppendEvent is held to.
type lineEvent struct {
	Seq    uint64  `json:"seq"`
	Ev     string  `json:"ev"`
	WallNS int64   `json:"wall_ns,omitempty"`
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

func oracleEvent(seq uint64, wallNS int64, ev Event) lineEvent {
	return lineEvent{
		Seq: seq, Ev: ev.Type.String(), WallNS: wallNS, Alg: ev.Alg,
		Task: ev.Task, Proc: ev.Proc, Iter: ev.Iter,
		Time: ev.Time, Start: ev.Start, Finish: ev.Finish, Value: ev.Value, Dup: ev.Dup,
	}
}

// checkEncoder compares AppendEvent with encoding/json for one event: on
// its own, compact and indented, and as the second element of an indented
// array, the depth a response body embeds events at. Where encoding/json
// refuses the event, AppendEvent must report an error.
func checkEncoder(t *testing.T, seq uint64, wallNS int64, ev Event) {
	t.Helper()
	le := oracleEvent(seq, wallNS, ev)
	oracles := []func() ([]byte, error){
		func() ([]byte, error) { return json.Marshal(le) },
		func() ([]byte, error) { return json.MarshalIndent(le, "", "  ") },
		func() ([]byte, error) {
			return json.MarshalIndent([]lineEvent{oracleEvent(1, 0, Event{}), le}, "", "  ")
		},
	}
	for i, oracle := range oracles {
		w := wire.GetWriter(i > 0)
		if i == 2 {
			w.BeginArray()
			AppendEvent(w, 1, 0, Event{})
		}
		AppendEvent(w, seq, wallNS, ev)
		if i == 2 {
			w.EndArray()
		}
		want, werr := oracle()
		if got, gerr := w.Bytes(), w.Err(); (werr != nil) != (gerr != nil) {
			t.Errorf("form %d of %+v (seq %d, wall %d): encoding/json error %v, AppendEvent error %v", i, ev, seq, wallNS, werr, gerr)
		} else if werr == nil && !bytes.Equal(got, want) {
			t.Errorf("form %d of %+v (seq %d, wall %d):\n got %s\nwant %s", i, ev, seq, wallNS, got, want)
		}
		w.Free()
	}
}

func TestEventEncoderMatchesStdlib(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		seq    uint64
		wallNS int64
		ev     Event
	}{
		{1, 0, Event{Type: EvPV, Alg: "HDLTS", Task: 7, Proc: -1, Iter: 3, Value: 12.25}},
		{2, 0, Event{Type: EvIteration, Alg: "HDLTS", Task: 2, Proc: 1, Iter: 1, Value: 3.5, Dup: true}},
		{3, 0, Event{Type: EvCommit, Alg: "HDLTS", Task: 0, Proc: 2, Start: 0, Finish: 9, Dup: true}},
		{4, 1_700_000_000_123_456_789, Event{Type: EvCommit, Task: 0, Proc: 0, Finish: 1}},
		{5, -1, Event{Type: EvDispatch, Alg: "HDLTS-online", Task: 6, Proc: 2, Time: 20, Start: 20, Finish: 31}},
		{0, 0, Event{Type: EvReplan, Alg: "HDLTS-online", Task: -1, Proc: -1, Time: 20, Value: 3}},
		{0, 0, Event{}},
		{math.MaxUint64, math.MinInt64, Event{Type: EventType(200), Task: math.MinInt64, Proc: math.MaxInt64, Iter: -1}},
		{9, 0, Event{Type: EvCommit, Task: 1, Proc: 1, Time: negZero, Start: negZero, Finish: negZero, Value: negZero}},
		{10, 0, Event{Type: EvEstimate, Alg: "<HEFT&co>", Task: 1, Proc: 0, Start: 1e21, Finish: 1e-7}},
		{11, 0, Event{Type: EvEstimate, Alg: "sep\u2028\u2029\"q\"\t\\ café \xff", Task: 1, Proc: 0, Start: 5e-324, Finish: math.MaxFloat64}},
		{12, 0, Event{Type: EvPV, Task: 1, Proc: -1, Value: math.NaN()}},
		{13, 0, Event{Type: EvCommit, Task: 1, Proc: 0, Finish: math.Inf(1)}},
		{14, 0, Event{Type: EvFailure, Task: -1, Proc: 0, Time: math.Inf(-1)}},
		{15, 0, Event{Type: EvCommit, Task: 1, Proc: 0, Start: math.NaN()}},
	}
	for _, c := range cases {
		checkEncoder(t, c.seq, c.wallNS, c.ev)
	}
}

func FuzzEventEncoderMatchesStdlib(f *testing.F) {
	f.Add(uint8(EvPV), false, "HDLTS", 7, -1, 3, 0.0, 0.0, 0.0, 12.25, uint64(1), int64(0))
	f.Add(uint8(EvCommit), true, "<a&b>", 0, 2, 0, 0.0, 1e21, 1e-7, 0.0, uint64(0), int64(1_700_000_000_123_456_789))
	f.Add(uint8(EvReplan), false, " \xff", -1, -1, 0, math.Copysign(0, -1), 0.0, 0.0, math.NaN(), uint64(9), int64(-5))
	f.Fuzz(func(t *testing.T, typ uint8, dup bool, alg string, task, proc, iter int, at, start, finish, value float64, seq uint64, wallNS int64) {
		checkEncoder(t, seq, wallNS, Event{
			Type: EventType(typ), Dup: dup, Alg: alg, Task: task, Proc: proc, Iter: iter,
			Time: at, Start: start, Finish: finish, Value: value,
		})
	})
}

// TestEncodeEventsMatchesJSONLWireForm: the JSONL sink writes each event
// as the oracle's compact line, numbered from 1, and a trace store's
// tracer republishes it on the hub as that line with seq 0. An event
// encoding/json refuses stops the sink (Flush reports it) and is not
// published.
func TestEncodeEventsMatchesJSONLWireForm(t *testing.T) {
	col := NewCollector()
	emitSample(col)
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	emitSample(sink)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	h := NewHub(NewRegistry(), 64)
	ts := NewTraceStore(1, 1)
	ts.AttachHub(h)
	ts.Start("t")
	sub := h.Subscribe(StreamFilter{}, 64)
	defer sub.Close()
	emitSample(ts.Tracer("t"))

	var want bytes.Buffer
	for i, ev := range col.Events() {
		line, err := json.Marshal(oracleEvent(uint64(i+1), 0, ev))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
		hub, err := json.Marshal(oracleEvent(0, 0, ev))
		if err != nil {
			t.Fatal(err)
		}
		if got := <-sub.C(); got.Kind != KindDecision || !bytes.Equal(got.Data, hub) {
			t.Errorf("hub published %s %s, want decision %s", got.Kind, got.Data, hub)
		}
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Errorf("sink wrote\n%s\nwant\n%s", buf.Bytes(), want.Bytes())
	}

	bad := Event{Type: EvPV, Task: 1, Proc: -1, Value: math.NaN()}
	ts.Tracer("t").Emit(bad)
	if n := len(sub.C()); n != 0 {
		t.Errorf("hub published %d events for a NaN value", n)
	}
	sink = NewJSONL(&bytes.Buffer{})
	sink.Emit(bad)
	if err := sink.Flush(); err == nil {
		t.Error("sink accepted a NaN value")
	}
}
