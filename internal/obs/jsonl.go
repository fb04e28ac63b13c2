package obs

import (
	"bufio"
	"io"
	"sync"
	"time"

	"hdlts/internal/wire"
)

// AppendEvent writes ev to w as one object in the JSONL wire form, the one
// encoder of that form: the bytes encoding/json produces for the record,
// compact or indented as w is, keys in a fixed order, optional members
// left out when zero. A NaN or ±Inf field is left in w.Err, where
// json.Marshal refuses it.
func AppendEvent(w *wire.Writer, seq uint64, wallNS int64, ev Event) {
	w.BeginObject()
	w.Key(WireSeq)
	w.Uint64(seq)
	w.Key(WireEvent)
	w.String(ev.Type.String())
	if wallNS != 0 {
		w.Key(WireWallNS)
		w.Int64(wallNS)
	}
	if ev.Alg != "" {
		w.Key(WireAlg)
		w.String(ev.Alg)
	}
	w.Key(WireTask)
	w.Int(ev.Task)
	w.Key(WireProc)
	w.Int(ev.Proc)
	if ev.Iter != 0 {
		w.Key(WireIter)
		w.Int(ev.Iter)
	}
	appendNonZero(w, WireTime, ev.Time)
	appendNonZero(w, WireStart, ev.Start)
	appendNonZero(w, WireFinish, ev.Finish)
	appendNonZero(w, WireValue, ev.Value)
	if ev.Dup {
		w.Key(WireDup)
		w.Bool(true)
	}
	w.EndObject()
}

// appendNonZero writes key: v unless v is zero (-0 included), as omitempty.
func appendNonZero(w *wire.Writer, key string, v float64) {
	if v != 0 {
		w.Key(key)
		w.Float(v)
	}
}

// JSONLSink writes one JSON object per event, one event per line. By
// default the stream is deterministic — events carry a sequence number but
// no wall-clock timestamp; WallClock(true) opts in to wall_ns fields.
type JSONLSink struct {
	mu   sync.Mutex
	bw   *bufio.Writer
	seq  uint64
	wall bool
	err  error
}

// NewJSONL returns a sink writing JSON Lines to w. Call Flush (or Close on
// the underlying file after Flush) when done.
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriter(w)}
}

// WallClock enables wall-clock timestamps on every event. Streams with
// wall clocks are not byte-reproducible across runs.
func (s *JSONLSink) WallClock(on bool) *JSONLSink {
	s.mu.Lock()
	s.wall = on
	s.mu.Unlock()
	return s
}

// Enabled implements Tracer.
func (s *JSONLSink) Enabled() bool { return true }

// Emit implements Tracer. An event the wire form refuses stops the stream;
// Flush reports it.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.seq++
	var wallNS int64
	if s.wall {
		wallNS = time.Now().UnixNano()
	}
	line := wire.GetWriter(false)
	defer line.Free()
	AppendEvent(line, s.seq, wallNS, ev)
	line.Newline()
	if s.err = line.Err(); s.err == nil {
		// The target is a bufio.Writer, so an Emit is an in-memory append
		// except when the buffer spills.
		_, s.err = s.bw.Write(line.Bytes())
	}
}

// Flush writes buffered lines through and reports the first emit or write
// error.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	//lint:hdltsvet-ignore lockedio Flush must drain under the same lock Emit appends under
	return s.bw.Flush()
}
