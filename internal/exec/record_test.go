package exec

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"hdlts/internal/wire"
)

// FuzzRecordPatchMatchesStdlib holds the executor's patch payload, and the
// record it patches, to json.Marshal: the same bytes, or a refusal where
// encoding/json refuses (a non-finite float, a time outside RFC 3339's
// years). The input draws the text of names, commands and errors, two
// floats, a time, which steps changed and how much of observed W is on
// disk. internal/durable's FuzzAppendRecordMatchesStdlib holds the lines
// and snapshots the store writes from them.
func FuzzRecordPatchMatchesStdlib(f *testing.F) {
	f.Add("a<b>&c\u2028", "true # \u2029 & <x>", "boom\xff\x01", 1e-7, 1e21, int64(1767323045), int32(0), uint16(0xffff))
	f.Add("plain", "true", "", 0.5, math.Copysign(0, -1), int64(0), int32(7200), uint16(0))
	f.Add("e", "\"q\"\t", "<", 5e-324, math.MaxFloat64, int64(-62135596800), int32(0), uint16(0x0aaa))
	f.Add("z", "", "&", -1.5, 2.5, int64(1704164645), int32(24*3600), uint16(0x0555))
	f.Add("nan", "x", "y", math.NaN(), 1.0, int64(1704164645), int32(0), uint16(0x00ff))
	f.Add("inf", "x", "y", 1.0, math.Inf(1), int64(253402300800), int32(0), uint16(0x0f0f))
	f.Fuzz(func(t *testing.T, name, command, errText string, x, y float64, sec int64, zone int32, flags uint16) {
		at := time.Unix(sec, int64(flags)).In(time.FixedZone("", int(zone)))
		if flags&1 != 0 {
			at = time.Time{}
		}
		r := &Record{ID: "wf-" + name, Name: name, Error: errText, State: Running, Replans: int(flags >> 8),
			MakespanSeconds: x, Seq: uint64(flags), SubmittedAt: at, StartedAt: at}
		r.Spec = &Workflow{Name: name, Procs: 2, Drift: y, Steps: []Step{{Name: name, Command: command,
			Depends: []string{errText}, Costs: []float64{x, y}, Timeout: time.Duration(sec), Retries: 1}}}
		for i := 0; i < 4; i++ {
			st := StepStatus{Name: name, State: StepRunning, Proc: i, EstSeconds: x, Error: errText}
			if flags&(2<<i) != 0 {
				st.ObservedSeconds, st.QueueWaitSeconds, st.Attempts, st.FinishedAt = y, x, i, at
			}
			r.Steps = append(r.Steps, st)
			r.ObservedW = append(r.ObservedW, WEntry{Step: command, Task: i, Proc: -i, Seconds: y})
		}
		changed := make([]bool, len(r.Steps))
		for i := range changed {
			changed[i] = flags&(32<<i) != 0
		}
		for _, v := range []interface {
			AppendRecord(*wire.Writer)
		}{r, r.patch(changed, int(flags>>12)%6)} {
			want, werr := json.Marshal(v)
			w := wire.GetWriter(false)
			v.AppendRecord(w)
			got, gerr := w.Bytes(), w.Err()
			if (gerr == nil) != (werr == nil) || werr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%T:\n%s (%v)\njson.Marshal:\n%s (%v)", v, got, gerr, want, werr)
			}
			w.Free()
		}
	})
}
