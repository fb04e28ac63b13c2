package server

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"hdlts/internal/core"
	"hdlts/internal/dag"
	"hdlts/internal/gen"
	"hdlts/internal/sched"
	"hdlts/internal/wire"
	"hdlts/internal/workflows"
)

// samePlacements reports whether two complete schedules place every task
// copy identically.
func samePlacements(t *testing.T, a, b *sched.Schedule) {
	t.Helper()
	if a.Makespan() != b.Makespan() {
		t.Fatalf("makespans differ: %g vs %g", a.Makespan(), b.Makespan())
	}
	n := a.Problem().NumTasks()
	if n != b.Problem().NumTasks() {
		t.Fatalf("task counts differ: %d vs %d", n, b.Problem().NumTasks())
	}
	for task := 0; task < n; task++ {
		ca, cb := a.Copies(dag.TaskID(task)), b.Copies(dag.TaskID(task))
		if len(ca) != len(cb) {
			t.Fatalf("task %d: %d vs %d copies", task, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("task %d copy %d differs: %+v vs %+v", task, i, ca[i], cb[i])
			}
		}
	}
}

// TestProblemCodecRoundTripIdenticalSchedule is the server-boundary
// guarantee: a problem that crosses the wire (problem → JSON → problem)
// schedules bit-identically to the original.
func TestProblemCodecRoundTripIdenticalSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random, err := gen.Random(gen.Params{
		V: 60, Alpha: 1.0, Density: 3, CCR: 2, Procs: 4, WDAG: 80, Beta: 1.2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for name, pr := range map[string]*sched.Problem{
		"fig1":   workflows.PaperExample(),
		"random": random,
	} {
		t.Run(name, func(t *testing.T) {
			var wire bytes.Buffer
			if err := pr.WriteJSON(&wire); err != nil {
				t.Fatal(err)
			}
			pr2, err := sched.ReadProblemJSON(bytes.NewReader(wire.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			// A second hop must also be byte-stable.
			var wire2 bytes.Buffer
			if err := pr2.WriteJSON(&wire2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wire.Bytes(), wire2.Bytes()) {
				t.Error("problem JSON is not byte-stable across a round trip")
			}
			s1, err := core.New().Schedule(pr)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := core.New().Schedule(pr2)
			if err != nil {
				t.Fatal(err)
			}
			samePlacements(t, s1, s2)
		})
	}
}

// TestDecodeScheduleRequestErrors pins the error text clients see for the
// classic malformed inputs, so messages stay actionable.
func TestDecodeScheduleRequestErrors(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"empty object", `{}`, "no problem"},
		{"truncated", `{"problem":{"graph":`, "decode request"},
		{
			"cyclic dag",
			`{"problem":{"graph":{"tasks":[{"name":"a"},{"name":"b"},{"name":"c"}],` +
				`"edges":[{"from":0,"to":1,"data":1},{"from":1,"to":2,"data":1},{"from":2,"to":0,"data":1}]},` +
				`"procs":1,"costs":[[1],[1],[1]]}}`,
			"cycle",
		},
		{
			"ragged cost matrix",
			`{"problem":{"graph":{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1,"data":1}]},` +
				`"procs":3,"costs":[[1,1,1],[1,1]]}}`,
			"cost row 1 has 2 entries, want 3",
		},
		{
			"negative cost",
			`{"problem":{"graph":{"tasks":[{"name":"a"}],"edges":[]},"procs":1,"costs":[[-5]]}}`,
			"invalid cost",
		},
		{
			"cost rows vs tasks",
			`{"problem":{"graph":{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1,"data":1}]},` +
				`"procs":1,"costs":[[1]]}}`,
			"task rows",
		},
		{
			"asymmetric bandwidth",
			`{"problem":{"graph":{"tasks":[{"name":"a"}],"edges":[]},"procs":2,` +
				`"bandwidth":[[0,1],[2,0]],"costs":[[1,1]]}}`,
			"not symmetric",
		},
		{
			"trailing garbage",
			`{"problem":{"graph":{"tasks":[{"name":"a"}],"edges":[]},"procs":1,"costs":[[1]]}} trailing garbage {`,
			"after top-level value",
		},
		{
			"second object",
			`{"problem":{"graph":{"tasks":[{"name":"a"}],"edges":[]},"procs":1,"costs":[[1]]}}{}`,
			"after top-level value",
		},
		{
			"unknown field",
			`{"problem":{"graph":{"tasks":[{"name":"a"}],"edges":[]},"procs":1,"costs":[[1]]},"bogus":1}`,
			"unknown field",
		},
		{
			"edge out of range",
			`{"problem":{"graph":{"tasks":[{"name":"a"}],"edges":[{"from":0,"to":5,"data":1}]},` +
				`"procs":1,"costs":[[1]]}}`,
			"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := decodeScheduleRequest(strings.NewReader(tc.body))
			if err == nil {
				t.Fatal("decode accepted malformed input")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeScheduleRequestAccepts covers the envelope forms the decoder
// admits: trailing whitespace, case-insensitive keys (encoding/json's
// rule), and a repeated key whose last value wins.
func TestDecodeScheduleRequestAccepts(t *testing.T) {
	problem := `{"graph":{"tasks":[{"name":"a"}],"edges":[]},"procs":1,"costs":[[1]]}`
	for _, body := range []string{
		`{"problem":` + problem + "}  \n\t",
		`{"ALGORITHM":"heft","Problem":` + problem + `,"TRACE":true}`,
		`{"problem":{"procs":0},"algorithm":null,"problem":` + problem + `}`,
	} {
		req, pr, err := decodeScheduleRequest(strings.NewReader(body))
		if err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		if pr.NumTasks() != 1 || req.Problem != nil {
			t.Errorf("%s: decoded %d tasks, request problem %q", body, pr.NumTasks(), req.Problem)
		}
	}
}

// TestDecodeCyclicWrapsErrCycle checks the typed error survives the server
// boundary, so embedders can branch on it.
func TestDecodeCyclicWrapsErrCycle(t *testing.T) {
	body := `{"problem":{"graph":{"tasks":[{"name":"a"},{"name":"b"}],` +
		`"edges":[{"from":0,"to":1,"data":1},{"from":1,"to":0,"data":1}]},"procs":1,"costs":[[1],[1]]}}`
	_, _, err := decodeScheduleRequest(strings.NewReader(body))
	if !errors.Is(err, dag.ErrCycle) {
		t.Errorf("err = %v, want errors.Is(_, dag.ErrCycle)", err)
	}
}

// readSpy records the room each Read call is offered: len(p) and cap(p).
type readSpy struct {
	r          io.Reader
	lens, caps []int
}

func (s *readSpy) Read(p []byte) (int, error) {
	s.lens = append(s.lens, len(p))
	s.caps = append(s.caps, cap(p))
	return s.r.Read(p)
}

// TestRequestBodySizesReadBuffer: a body behind the handlers' byte cap
// whose Content-Length matches is read into wire.ReadAll's buffer in one
// Read, with no regrowth, and a Content-Length far above the cap reserves
// at most the cap plus bytes.MinRead.
func TestRequestBodySizesReadBuffer(t *testing.T) {
	const limit = 64 << 10
	read := func(body []byte, contentLength int64) (*readSpy, []byte) {
		t.Helper()
		spy := &readSpy{r: bytes.NewReader(body)}
		r := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
		r.Body, r.ContentLength = io.NopCloser(spy), contentLength
		// An empty read pool, so the buffer is sized by this read alone.
		runtime.GC()
		runtime.GC()
		data, _, err := wire.ReadAll(requestBody(httptest.NewRecorder(), r, limit))
		if err != nil {
			t.Fatal(err)
		}
		return spy, data
	}

	body := bytes.Repeat([]byte{' '}, 40_000)
	spy, data := read(body, int64(len(body)))
	if !bytes.Equal(data, body) {
		t.Fatal("body read back differs")
	}
	if spy.lens[0] < len(body) {
		t.Errorf("first Read offered %d bytes for a %d-byte body (reads offered %v): the buffer regrew",
			spy.lens[0], len(body), spy.lens)
	}

	// Large allocations round up to whole 8 KiB pages.
	spy, data = read(body[:100], 64*limit)
	if len(data) != 100 {
		t.Fatalf("read %d bytes, want 100", len(data))
	}
	if reserved, most := spy.caps[0], limit+bytes.MinRead+8<<10; reserved > most {
		t.Errorf("a %d-byte Content-Length reserved %d bytes, want at most %d", 64*limit, reserved, most)
	}
}
