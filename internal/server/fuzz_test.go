package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

// fuzzSeedProblem renders the Fig. 1 problem for seeding the corpora.
func fuzzSeedProblem(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := workflows.PaperExample().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeProblem hardens the shared problem decoder behind
// POST /v1/schedule and POST /v1/jobs: arbitrary bytes must either fail
// cleanly or produce a problem whose canonical serialisation — the input
// to the job result cache's content address — is a stable fixed point.
func FuzzDecodeProblem(f *testing.F) {
	f.Add(fuzzSeedProblem(f))
	f.Add([]byte(`{"graph":{"tasks":[{"name":"a"}],"edges":[]},"procs":1,"costs":[[1]]}`))
	f.Add([]byte(`{"graph":{"tasks":[],"edges":[]},"procs":0,"costs":[]}`))
	f.Add([]byte(`{"procs":3}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := decodeProblem(data)
		if err != nil {
			return // clean rejection is fine
		}
		canon, err := CanonicalProblemJSON(pr)
		if err != nil {
			t.Fatalf("accepted problem fails to canonicalise: %v", err)
		}
		// The canonical form must re-decode, and canonicalising the result
		// must reproduce it byte for byte — otherwise identical submissions
		// could miss the cache.
		back, err := decodeProblem(canon)
		if err != nil {
			t.Fatalf("canonical form rejected by own decoder: %v", err)
		}
		canon2, err := CanonicalProblemJSON(back)
		if err != nil {
			t.Fatalf("re-canonicalise failed: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical serialisation is not a fixed point:\n%s\nvs\n%s", canon, canon2)
		}
		if hashOf("HDLTS", canon) != hashOf("HDLTS", canon2) {
			t.Fatal("hash differs across canonical round-trip")
		}
	})
}

// FuzzDecodeScheduleRequest fuzzes the full POST /v1/schedule request
// envelope around the problem decoder.
func FuzzDecodeScheduleRequest(f *testing.F) {
	problem := fuzzSeedProblem(f)
	f.Add([]byte(`{"algorithm":"hdlts","problem":` + string(problem) + `}`))
	f.Add([]byte(`{"problem":` + string(problem) + `,"trace":true}`))
	f.Add([]byte(`{"algorithm":"heft"}`))
	f.Add([]byte(`{"problem":{}}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, pr, err := decodeScheduleRequest(bytes.NewReader(data))
		if err != nil {
			return // clean rejection is fine
		}
		if req == nil || pr == nil {
			t.Fatal("nil request or problem without error")
		}
		// Whatever the decoder admits must be schedulable input: it has the
		// codec's invariants, so canonicalisation cannot fail.
		if _, err := CanonicalProblemJSON(pr); err != nil {
			t.Fatalf("accepted request fails to canonicalise: %v", err)
		}
	})
}

// oracleScheduleRequest is the request decoding the server used before the
// single-pass codec, plus the trailing-data rule: encoding/json decodes the
// envelope with unknown fields disallowed, only whitespace may follow it,
// and the raw problem then goes through the problem decoder, which
// internal/sched holds to its own reflection oracle.
func oracleScheduleRequest(data []byte) (*ScheduleRequest, *sched.Problem, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req ScheduleRequest
	if err := dec.Decode(&req); err != nil {
		return nil, nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, fmt.Errorf("trailing data: %v", err)
	}
	pr, err := decodeProblem(req.Problem)
	if err != nil {
		return nil, nil, err
	}
	return &req, pr, nil
}

// FuzzScheduleRequestMatchesStdlib holds the single-pass envelope decoder
// to oracleScheduleRequest: both reject, or both accept with the same
// algorithm, trace flag and canonical problem.
func FuzzScheduleRequestMatchesStdlib(f *testing.F) {
	problem := string(fuzzSeedProblem(f))
	for _, seed := range []string{
		`{"algorithm":"hdlts","problem":` + problem + `}`,
		`{"ALGORITHM":"heft","Problem":` + problem + `,"TRACE":true}  ` + "\n",
		`{"problem":{"procs":0},"algorithm":null,"trace":null,"problem":` + problem + `}`,
		`{"problem":` + problem + `} {}`,
		`{"problem":` + problem + `,"bogus":[1,{"x":null}]}`,
		`{"problem":null}`,
		`{"problem":5}`,
		`{"algorithm":7,"problem":` + problem + `}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, pr, err := decodeScheduleRequest(bytes.NewReader(data))
		oreq, opr, oerr := oracleScheduleRequest(data)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("input %q:\ndecoder error: %v\noracle error:  %v", data, err, oerr)
		}
		if err != nil {
			return
		}
		if req.Algorithm != oreq.Algorithm || req.Trace != oreq.Trace {
			t.Fatalf("envelope %+v, oracle %+v", req, oreq)
		}
		a, err := CanonicalProblemJSON(pr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CanonicalProblemJSON(opr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("canonical problems differ:\n%s\noracle:\n%s", a, b)
		}
	})
}

// trailingData rejects anything but whitespace after the value dec has
// decoded: a request body holds exactly one JSON object.
func trailingData(dec *json.Decoder) error {
	tok, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err != nil:
		return err
	default:
		return fmt.Errorf("unexpected %v after the request object", tok)
	}
}

// oracleJobSubmit is the POST /v1/jobs decoding the server used before
// the single-pass codec: encoding/json decodes the envelope with unknown
// fields disallowed, only whitespace may follow it, it must hold exactly
// one of the two forms, and each item's raw problem then goes through the
// problem decoder.
func oracleJobSubmit(data []byte) (items []JobSubmitItem, prs []*sched.Problem, single bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req JobSubmitRequest
	err = dec.Decode(&req)
	if err == nil {
		err = trailingData(dec)
	}
	if err != nil {
		return nil, nil, false, err
	}
	single = len(req.Problem) > 0
	if single == (len(req.Jobs) > 0) {
		return nil, nil, false, fmt.Errorf("request needs exactly one form")
	}
	items = req.Jobs
	if single {
		items = []JobSubmitItem{{Algorithm: req.Algorithm, Problem: req.Problem}}
	}
	prs = make([]*sched.Problem, len(items))
	for i, it := range items {
		if prs[i], err = decodeProblem(it.Problem); err != nil {
			return nil, nil, false, err
		}
	}
	return items, prs, single, nil
}

// FuzzJobSubmitMatchesStdlib holds the single-pass POST /v1/jobs decoder
// to oracleJobSubmit: both reject, or both accept with the same algorithm
// per item and byte-identical canonical problems.
func FuzzJobSubmitMatchesStdlib(f *testing.F) {
	problem := string(fuzzSeedProblem(f))
	small := `{"graph":{"tasks":[{"name":"a"}],"edges":[]},"procs":1,"costs":[[1]]}`
	for _, seed := range []string{
		`{"algorithm":"hdlts","problem":` + problem + `}`,
		`{"jobs":[{"algorithm":"heft","problem":` + problem + `},{"problem":` + small + `}]}`,
		`{"problem":` + small + `,"jobs":[{"problem":` + small + `}]}`,
		`{"algorithm":"heft"}`,
		`{}`,
		`{"problem":null}`,
		`{"jobs":[]}`,
		`{"jobs":null}`,
		`{"jobs":[{"problem":` + small + `,"bogus":1}]}`,
		`{"ALGORITHM":"cpop","Problem":` + small + `}  ` + "\n",
		`{"JOBS":[{"Algorithm":"heft","PROBLEM":` + small + `}]}`,
		`{"problem":{"procs":0},"algorithm":"pets","algorithm":null,"problem":` + small + `}`,
		`{"jobs":[{"algorithm":"heft","problem":{"procs":0}},{"problem":` + small + `}],"jobs":[{"problem":` + small + `}],` +
			`"jobs":[null,{}]}`,
		`{"jobs":[{"problem":` + small + `}],"jobs":[],"jobs":[{}]}`,
		`{"jobs":[{"algorithm":"heft","problem":` + small + `},{"algorithm":"cpop","problem":` + small + `}],` +
			`"jobs":[{}],"jobs":[{},{"Jobs":1}],"jobs":[{},{}]}`,
		`{"jobs":[{"algorithm":"heft","problem":` + small + `},{"algorithm":"cpop","problem":` + small + `}],` +
			`"jobs":[{}],"jobs":[{},{}]}`,
		`{"problem":` + small + `} {}`,
		`{"problem":` + small + `}x`,
		`{"jobs":[null]}`,
		`{"jobs":[5]}`,
		`{"algorithm":7,"problem":` + small + `}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		items, single, err := decodeJobSubmit(bytes.NewReader(data))
		for i := range items {
			switch it := &items[i]; {
			case err != nil:
			case !it.set:
				err = fmt.Errorf("job %d has no problem", i)
			case it.err != nil:
				err = it.err
			}
		}
		oitems, oprs, osingle, oerr := oracleJobSubmit(data)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("input %q:\ndecoder error: %v\noracle error:  %v", data, err, oerr)
		}
		if err != nil {
			return
		}
		if len(items) != len(oitems) || single != osingle {
			t.Fatalf("decoded %d items (single %v), oracle %d (single %v)", len(items), single, len(oitems), osingle)
		}
		for i, it := range items {
			if it.algorithm != oitems[i].Algorithm {
				t.Fatalf("item %d: algorithm %q, oracle %q", i, it.algorithm, oitems[i].Algorithm)
			}
			a, err := CanonicalProblemJSON(it.problem)
			if err != nil {
				t.Fatal(err)
			}
			b, err := CanonicalProblemJSON(oprs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("item %d: canonical problems differ:\n%s\noracle:\n%s", i, a, b)
			}
		}
	})
}
