package core

import (
	"bytes"
	"math/rand"
	"testing"

	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

// fuzzMaxTasks caps decoded fuzz problems so one input stays cheap across
// five option sets and two engines.
const fuzzMaxTasks = 200

// FuzzIndexedMatchesReference holds the indexed core to the reference
// oracle on arbitrary decodable problems — zero costs, ties and degenerate
// shapes included, where the two engines' tie-breaks could drift apart.
// Under every option set the canonical schedule bytes, the Table-I steps
// (floats bit-identical) and the traced event stream (reference estimate
// events removed) must match; the stream a TraceStore renders from the
// stored record must be that stream, or its whole-iteration head when the
// record outgrew the per-trace byte cap.
func FuzzIndexedMatchesReference(f *testing.F) {
	var buf bytes.Buffer
	if err := workflows.PaperExample().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		pr, err := randomProblem(rng)
		if err != nil {
			f.Fatal(err)
		}
		buf.Reset()
		if err := pr.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	f.Add([]byte(`{"graph":{"tasks":[{"name":"a"},{"name":"b"},{"name":"c"}],"edges":[{"from":0,"to":1,"data":0},{"from":0,"to":2,"data":0}]},"procs":2,"costs":[[0,0],[0,0],[0,0]]}`))
	f.Add([]byte(`{"graph":{"tasks":[{"name":"a"},{"name":"b"},{"name":"c"},{"name":"d"}],"edges":[{"from":0,"to":3,"data":4},{"from":1,"to":3,"data":4}]},"procs":3,"costs":[[2,2,2],[2,2,2],[1,1,1],[3,3,3]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := sched.ReadProblemJSON(bytes.NewReader(data))
		if err != nil || pr.NumTasks() > fuzzMaxTasks {
			return
		}
		for _, o := range optionSets {
			h := NewWithOptions(o)
			si, stepsI, err := h.ScheduleTrace(pr)
			sr, stepsR, errR := h.runReference(pr, true)
			if (err != nil) != (errR != nil) {
				t.Fatalf("opts %+v: indexed error %v, reference error %v", o, err, errR)
			}
			if err != nil {
				continue
			}
			if bi, br := canonicalBytes(t, si), canonicalBytes(t, sr); !bytes.Equal(bi, br) {
				t.Fatalf("opts %+v: schedules differ\nindexed:\n%s\nreference:\n%s", o, bi, br)
			}
			if msg := stepsMismatch(stepsI, stepsR); msg != "" {
				t.Fatalf("opts %+v: %s", o, msg)
			}
			ei, ering, dropped, er := eventStreams(t, pr, o)
			if !bytes.Equal(ei, er) {
				t.Fatalf("opts %+v: event streams differ\nindexed:\n%s\nreference:\n%s", o, ei, er)
			}
			if msg := ringMismatch(ering, dropped, er); msg != "" {
				t.Fatalf("opts %+v: %s\nring:\n%s\nreference:\n%s", o, msg, ering, er)
			}
		}
	})
}
