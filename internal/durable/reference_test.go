package durable_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hdlts/internal/durable"
	"hdlts/internal/exec"
	"hdlts/internal/jobs"
)

// refEnvelope is a WAL line as the encoding/json replay decoded it.
type refEnvelope[R any] struct {
	Op  string `json:"op"`
	Job R      `json:"job,omitempty"`
	Rec R      `json:"rec,omitempty"`
	ID  string `json:"id,omitempty"`
}

// rawPayloads collects every value of a repeated payload key, in line
// order: the patches a patch line applies one after the other.
type rawPayloads [][]byte

func (p *rawPayloads) UnmarshalJSON(b []byte) error {
	*p = append(*p, bytes.Clone(b))
	return nil
}

// recovery is what opening a store yields: the live table, the next
// sequence number, and the WAL's length once a torn tail is cut.
type recovery[R durable.Record] struct {
	recs    map[string]R
	nextSeq uint64
	walLen  int64
}

// referenceOpen is the store's recovery as it was when replay decoded
// every line with json.Unmarshal: the oracle FuzzReplayMatchesStdlib holds
// Open's wire walk to. The snapshot is read when present; WAL lines apply
// in order until the first that is not newline-terminated, or the first
// that does not decode, which refuses the store when any byte follows it.
// A patch line json.Unmarshals each of its non-null payloads under the
// store's key onto the record with the line's ID. A patch of an ID not in
// the table is skipped, and so is one that changes the ID of a record that
// held only that ID.
func referenceOpen[R durable.Record](key string, snapshot []byte, hasSnapshot bool, wal []byte) (*recovery[R], error) {
	var zero R
	rv := &recovery[R]{recs: make(map[string]R)}
	if hasSnapshot {
		var list []R
		if err := json.Unmarshal(snapshot, &list); err != nil {
			return nil, fmt.Errorf("decode snapshot: %w", err)
		}
		for _, r := range list {
			if r == zero || r.RecordID() == "" {
				return nil, errors.New("decode snapshot: record without an id")
			}
			rv.recs[r.RecordID()] = r
		}
	}
	// apply applies one line, reporting whether it decoded.
	apply := func(line []byte) bool {
		var env refEnvelope[R]
		if err := json.Unmarshal(line, &env); err != nil {
			return false
		}
		switch env.Op {
		case "put":
			r := env.Job
			if key == durable.RecKey {
				r = env.Rec
			}
			if r != zero && r.RecordID() != "" {
				rv.recs[r.RecordID()] = r
			}
		case "patch":
			r, ok := rv.recs[env.ID]
			if !ok {
				break
			}
			var raw refEnvelope[rawPayloads]
			json.Unmarshal(line, &raw) // cannot fail: the line decoded above
			payloads := raw.Job
			if key == durable.RecKey {
				payloads = raw.Rec
			}
			var probe R
			seed, _ := json.Marshal(map[string]string{"id": env.ID})
			if err := json.Unmarshal(seed, &probe); err != nil {
				return false
			}
			for _, p := range payloads {
				if string(p) != "null" {
					json.Unmarshal(p, probe) // cannot fail: the line decoded above
				}
			}
			if probe.RecordID() != env.ID {
				break
			}
			for _, p := range payloads {
				if string(p) == "null" {
					continue
				}
				if err := json.Unmarshal(p, r); err != nil {
					return false
				}
			}
		case "del":
			delete(rv.recs, env.ID)
		}
		return true
	}
	for rest := wal; ; {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		if !apply(rest[:i]) {
			if len(rest) > i+1 {
				return nil, fmt.Errorf("WAL line at byte %d does not decode and is not the last", rv.walLen)
			}
			break
		}
		rv.walLen += int64(i) + 1
		rest = rest[i+1:]
	}
	for _, r := range rv.recs {
		if !r.RecordState().Valid() {
			return nil, fmt.Errorf("record %s has unknown state %q", r.RecordID(), r.RecordState())
		}
		rv.nextSeq = max(rv.nextSeq, r.RecordSeq()+1)
	}
	return rv, nil
}

// openFiles runs durable.Open on a store directory holding the given
// files and reports what it recovered.
func openFiles[R recordPtr[T], T any](t *testing.T, key string, snapshot []byte, hasSnapshot bool, wal []byte) (*recovery[R], error) {
	t.Helper()
	dir := t.TempDir()
	if hasSnapshot {
		if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, "wal.jsonl")
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	s, recovered, err := durable.Open[R](durable.Config{Dir: dir, Key: key}, &mu)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	rv := &recovery[R]{recs: make(map[string]R), walLen: st.Size()}
	for _, r := range recovered {
		rv.recs[r.RecordID()] = r
	}
	mu.Lock()
	rv.nextSeq = s.NextSeq()
	mu.Unlock()
	return rv, nil
}

func matchStdlib[R recordPtr[T], T any](t *testing.T, key string, snapshot []byte, hasSnapshot bool, wal []byte) {
	t.Helper()
	want, werr := referenceOpen[R](key, snapshot, hasSnapshot, wal)
	got, gerr := openFiles[R](t, key, snapshot, hasSnapshot, wal)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%T under %q: Open error %v, encoding/json replay error %v", *new(R), key, gerr, werr)
	case gerr != nil:
	case !reflect.DeepEqual(got.recs, want.recs):
		g, _ := json.Marshal(got.recs)
		w, _ := json.Marshal(want.recs)
		t.Fatalf("%T under %q: recovered\n%s\nencoding/json replay recovered\n%s", *new(R), key, g, w)
	case got.nextSeq != want.nextSeq:
		t.Fatalf("%T under %q: NextSeq %d, encoding/json replay %d", *new(R), key, got.nextSeq, want.nextSeq)
	case got.walLen != want.walLen:
		t.Fatalf("%T under %q: WAL cut to %d bytes, encoding/json replay to %d", *new(R), key, got.walLen, want.walLen)
	}
}

// Job lines whose decoding leans on encoding/json's finer rules.
var stdlibRuleLines = []string{
	// Case-folded envelope and record keys.
	`{"OP":"put","JOB":{"Id":"a","STATE":"done","Seq":3}}`,
	`{"op":"del","Id":"a"}`,
	// Repeated keys: the record merges, the last scalar wins.
	`{"op":"put","job":{"id":"b","problem":{"x":1},"seq":1},"job":{"state":"done","problem":[2],"seq":5,"seq":6}}`,
	// A null record, and a null problem.
	`{"op":"put","job":{"id":"c","state":"done"},"job":null}`,
	`{"op":"put","job":{"id":"d","state":"done","problem":null,"result":null}}`,
	// Raw bytes kept as written.
	`{"op":"put","job":{"id":"e","state":"done","problem":{ "name" : "<a>&b" , "v":[1, 2.50] }}}`,
	// Timestamps: an offset, and a \u escape time.Time refuses.
	`{"op":"put","job":{"id":"f","state":"done","submitted_at":"2024-01-02T03:04:05.5+02:00"}}`,
	`{"op":"put","job":{"id":"g","state":"done","submitted_at":"2024-01-02T03:04:05\u002e5Z"}}`,
	// seq at the edges of uint64.
	`{"op":"put","job":{"id":"h","state":"done","seq":18446744073709551615}}`,
	`{"op":"put","job":{"id":"i","state":"done","seq":-1}}`,
	`{"op":"put","job":{"id":"j","state":"done","seq":1e3}}`,
	// A workflow payload in a job store.
	`{"op":"put","rec":{"id":"k","state":"done","steps":[]}}`,
	// Type errors in a superseded line and under the other key.
	`{"op":"put","job":{"id":"l","state":"done","attempts":"1"},"job":{"id":"l","state":"done"}}`,
	`{"op":"put","job":{"id":"m","state":"done"},"rec":{"id":7}}`,
	`null`,
	` {"op":"put","job":{"id":"n","state":"queued","cache_hit":true,"unknown":[{}]}} ` + "\r",
}

// Patch lines, each WAL opening with the puts they patch: job patches as
// the job manager writes them, workflow patches as the executor does, and
// the envelope rules a patch shares with a put.
var patchWALs = []string{
	`{"op":"put","job":{"id":"a","state":"queued","problem":{"x":1},"seq":2}}
{"op":"patch","job":{"id":"a","state":"running","attempts":1,"started_at":"2024-01-02T03:04:05Z"},"id":"a"}
{"op":"patch","job":{"id":"a","state":"done","attempts":1,"result":{"m":73},"finished_at":"2024-01-02T03:04:06Z"},"id":"a"}`,
	`{"op":"put","rec":{"id":"w","state":"queued","spec":{"procs":1,"steps":[{"name":"a","command":"true"},{"name":"b","command":"true"}]},` +
		`"steps":[{"name":"a","state":"pending"},{"name":"b","state":"pending"}],"seq":1}}
{"op":"patch","rec":{"state":"running","error":"","replans":0,"makespan_seconds":0,"started_at":"2024-01-02T03:04:05Z",` +
		`"finished_at":"0001-01-01T00:00:00Z","changed_steps":[{"index":1,"name":"b","state":"running","proc":0,"attempts":1}]},"id":"w"}
{"op":"patch","rec":{"state":"done","changed_steps":[{"index":1,"name":"b","state":"done"},{"index":7,"name":"x"},{"index":-1}],` +
		`"observed_w_added":[{"step":"b","task":1,"proc":0,"seconds":0.5}]},"id":"w"}
{"op":"patch","rec":{"observed_w_from":1,"observed_w_added":[{"step":"a","task":0,"seconds":2}]},"id":"w"}
{"op":"patch","rec":{"observed_w_from":9,"observed_w_added":[]},"id":"w"}`,
	// A patch of an ID not in the table, a null and a repeated payload,
	// the other key's payload, and case-folded keys.
	`{"op":"patch","job":{"state":"done"},"id":"nobody"}
{"op":"put","job":{"id":"b","state":"queued","seq":1}}
{"op":"patch","job":null,"id":"b"}
{"op":"patch","job":{"attempts":2},"job":{"state":"running"},"rec":{"id":"c"},"id":"b"}
{"OP":"PATCH","JOB":{"Error":"e","STATE":"failed"},"Id":"b"}`,
	// Patches that would move their record to another ID or empty its ID,
	// which are skipped, one that repeats the ID, and one that breaks the
	// payload's type.
	`{"op":"put","job":{"id":"d","state":"done","seq":4}}
{"op":"put","job":{"id":"e","state":"done","seq":5}}
{"op":"patch","job":{"id":"e2","attempts":3},"id":"e"}
{"op":"patch","job":{"id":"","attempts":3},"id":"d"}
{"op":"patch","job":{"id":"x"},"job":{"ID":"d","attempts":4},"id":"d"}
{"op":"patch","job":{"id":null,"state":"failed"},"id":"e"}
{"op":"patch","job":{"attempts":"1"},"id":"e"}`,
	// A patch whose payload breaks the record's state.
	`{"op":"put","rec":{"id":"f","state":"done","steps":[]}}
{"op":"patch","rec":{"state":"paused"},"id":"f"}`,
}

// FuzzReplayMatchesStdlib holds recovery to the encoding/json replay it
// replaced: for any snapshot and WAL bytes, under either payload key and
// for both record types, Open and the oracle both refuse, or they recover
// the same records, the same NextSeq, and cut the WAL to the same length.
func FuzzReplayMatchesStdlib(f *testing.F) {
	for i, name := range []string{"jobs", "workflows"} {
		snap, _ := os.ReadFile(filepath.Join("testdata", "parent", name, "snapshot.json"))
		wal, _ := os.ReadFile(filepath.Join("testdata", "parent", name, "wal.jsonl"))
		f.Add(snap, wal, uint8(2|i))
	}
	for i, line := range stdlibRuleLines {
		f.Add([]byte(nil), []byte(line+"\n"+`{"op":"put","job":{"id":"after","state":"done"}}`+"\n"), uint8(i%2))
		f.Add([]byte("["+line+"]"), []byte(nil), uint8(2|i%2))
	}
	for i, wal := range patchWALs {
		f.Add([]byte(nil), []byte(wal+"\n"), uint8(i%2))
		f.Add([]byte(nil), []byte(wal+"\n"), uint8(1-i%2))
		f.Add([]byte(`[{"id":"b","state":"queued","seq":0},{"id":"w","state":"running","steps":[{"name":"a"}]}]`), []byte(wal+"\n"), uint8(2|i%2))
	}
	for _, snap := range []string{`null`, `[null]`, `{}`, ``, `[{"id":"x","state":"queued","seq":2}] `, `[{"id":"x"}]x`} {
		f.Add([]byte(snap), []byte(`{"op":"del","id":"x"}`+"\n"+`{"op":"put","job":{"id":"to`), uint8(2))
	}
	f.Fuzz(func(t *testing.T, snapshot, wal []byte, mode uint8) {
		key := durable.JobKey
		if mode&1 != 0 {
			key = durable.RecKey
		}
		hasSnapshot := mode&2 != 0
		matchStdlib[*jobs.Job](t, key, snapshot, hasSnapshot, wal)
		matchStdlib[*exec.Record](t, key, snapshot, hasSnapshot, wal)
	})
}
