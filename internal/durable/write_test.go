package durable_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hdlts/internal/durable"
	"hdlts/internal/exec"
	"hdlts/internal/jobs"
)

// refLine is a WAL line as the store wrote it with json.Encoder.
type refLine struct {
	Op  string `json:"op"`
	Job any    `json:"job,omitempty"`
	Rec any    `json:"rec,omitempty"`
	ID  string `json:"id,omitempty"`
}

// writeInput is what one fuzz input draws records from: text for names,
// commands and errors, two floats, a time, and flags that switch optional
// members on and off.
type writeInput struct {
	name, command, errText string
	x, y                   float64
	at                     time.Time
	flags                  uint16
}

func (in writeInput) on(bit int) bool { return in.flags&(1<<bit) != 0 }

// time returns the input's time, or the zero time when the bit is set:
// encoding/json writes zero times despite omitempty.
func (in writeInput) time(bit int) time.Time {
	if in.on(bit) {
		return time.Time{}
	}
	return in.at
}

// compactJSON is v as json.Marshal writes it, the form the process stores
// raw problems and results in, or nil when encoding/json refuses it.
func compactJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return b
}

func (in writeInput) job(seq uint64) *jobs.Job {
	j := &jobs.Job{ID: "j-" + in.name, Algorithm: in.command, Hash: in.errText, State: jobs.Running,
		Attempts: int(in.flags >> 8), MaxAttempts: 3, Seq: seq,
		SubmittedAt: in.time(0), StartedAt: in.time(1), FinishedAt: in.time(2)}
	if in.on(3) {
		j.TraceID = in.name
	}
	if in.on(4) {
		j.Problem = compactJSON(map[string]any{"name": in.name, "costs": []float64{in.x, in.y}})
	}
	if in.on(5) {
		j.Result = compactJSON([]any{in.command, in.y, map[string]any{}})
		j.Error = in.errText
	}
	j.CacheHit, j.CancelRequested = in.on(6), in.on(7)
	return j
}

func (in writeInput) record(seq uint64) *exec.Record {
	r := &exec.Record{ID: "wf-" + in.name, Name: in.name, State: exec.Running, Replans: int(in.flags >> 8),
		MakespanSeconds: in.y, Seq: seq, SubmittedAt: in.time(0), StartedAt: in.time(1), FinishedAt: in.time(2)}
	if in.on(3) {
		r.TraceID, r.Error = in.name, in.errText
	}
	if !in.on(4) {
		step := exec.Step{Name: in.name, Command: in.command}
		if in.on(5) {
			step.Depends, step.Env = []string{in.name, in.command}, []string{in.errText}
			step.Costs, step.Timeout, step.Retries = []float64{in.x, in.y}, time.Duration(in.flags), int(in.flags>>4)
		}
		r.Spec = &exec.Workflow{Name: in.name, Procs: 2, Drift: in.x, Steps: []exec.Step{step, {}}}
		if in.on(6) {
			r.Spec.Steps = nil
		}
	}
	if !in.on(7) {
		r.Steps = []exec.StepStatus{{Name: in.name, State: exec.StepDone, PlannedProc: 1, EstSeconds: in.x,
			ObservedSeconds: in.y, QueueWaitSeconds: in.x, Attempts: int(in.flags >> 12), Error: in.errText,
			StartedAt: in.time(8), FinishedAt: in.time(9)}, {}}
	}
	if in.on(10) {
		r.ObservedW = []exec.WEntry{{Step: in.command, Task: 1, Proc: -1, Seconds: in.y}}
	}
	return r
}

// writeSeeds are fuzz inputs with HTML-significant bytes, U+2028 and
// U+2029, invalid UTF-8 and control characters in the text, floats that
// encoding/json writes in e form, zero times, a zone offset it refuses,
// and non-finite floats, which refuse the line.
var writeSeeds = []writeInput{
	{"a<b>&c\u2028", "true # \u2029 & <x>", "boom\xff\x01", 1e-7, 1e21, time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC), 0xffff},
	{"plain", "true", "", 0.5, math.Copysign(0, -1), time.Date(2024, 1, 2, 3, 4, 5, 500, time.FixedZone("", 2*3600)), 0},
	{"e", "\"quoted\"\t", "<", 5e-324, -math.MaxFloat64, time.Time{}, 0x0aaa},
	{"z", "", "&", 1.5, 2.5, time.Date(2024, 1, 2, 3, 4, 5, 0, time.FixedZone("", 24*3600)), 0x0555},
	{"nan", "x", "y", math.NaN(), 1, time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC), 0x00ff},
	{"inf", "x", "y", 1, math.Inf(-1), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), 0x0f0f},
}

// FuzzAppendRecordMatchesStdlib holds the write side to encoding/json,
// which wrote the WAL and snapshots before the records wrote themselves:
// for jobs and workflow records drawn from the input, a store's put, patch
// and del lines are the bytes json.Encoder writes for the line's envelope,
// a record encoding/json refuses stages no line, and the snapshot is
// json.Marshal's bytes for the live list, or refused when that is. The
// patch payloads are a job without its problem, as the job manager
// writes it, and a whole workflow record; internal/exec's
// FuzzRecordPatchMatchesStdlib covers the executor's own patch payload.
func FuzzAppendRecordMatchesStdlib(f *testing.F) {
	for _, in := range writeSeeds {
		zone := 0
		if in.at.Location() != time.UTC {
			_, zone = in.at.Zone()
		}
		f.Add(in.name, in.command, in.errText, in.x, in.y, in.at.Unix(), int64(in.at.Nanosecond()), int32(zone), in.at.IsZero(), in.flags)
	}
	f.Fuzz(func(t *testing.T, name, command, errText string, x, y float64, sec, nsec int64, zone int32, zero bool, flags uint16) {
		in := writeInput{name: name, command: command, errText: errText, x: x, y: y, flags: flags}
		if !zero {
			in.at = time.Unix(sec, nsec).In(time.FixedZone("", int(zone)))
			if zone == 0 {
				in.at = in.at.UTC()
			}
		}
		a, b := in.job(1), in.job(2)
		b.ID += "-2"
		patch := *a
		patch.Problem = nil
		matchWrites(t, durable.JobKey, a, b, &patch)
		r, s := in.record(1), in.record(2)
		s.ID += "-2"
		matchWrites(t, durable.RecKey, r, s, r)
	})
}

// matchWrites stages a put of a, a patch of a with delta, a put of b, a
// del of a and a put of a again in a fresh store, then compacts it, and
// compares the WAL and the snapshot with encoding/json's bytes.
func matchWrites[R recordPtr[T], T any](t *testing.T, key string, a, b R, delta durable.Payload) {
	t.Helper()
	dir := t.TempDir()
	st, _ := openStore[R](t, dir, key)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	ref := func(op string, payload any, id string) {
		l := refLine{Op: op, ID: id}
		if key == durable.JobKey {
			l.Job = payload
		} else {
			l.Rec = payload
		}
		enc.Encode(l) // a refused line writes nothing, as stage stages nothing
	}
	st.mu.Lock()
	st.s.Put(a)
	ref("put", a, "")
	st.s.Patch(a, delta)
	ref("patch", delta, a.RecordID())
	st.s.Put(b)
	ref("put", b, "")
	st.s.Delete(a.RecordID())
	ref("del", nil, a.RecordID())
	st.s.Put(a)
	ref("put", a, "")
	st.mu.Unlock()
	st.s.Flush()
	got, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%T WAL lines:\n%s\nencoding/json:\n%s", a, got, want.Bytes())
	}

	wantSnap, werr := json.Marshal([]R{a, b})
	gerr := st.s.Compact()
	st.close(t)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%T snapshot error %v, encoding/json %v", a, gerr, werr)
	}
	if gerr != nil {
		return
	}
	gotSnap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Fatalf("%T snapshot:\n%s\nencoding/json:\n%s", a, gotSnap, wantSnap)
	}
}
