package sched

import (
	"fmt"
	"io"

	"hdlts/internal/dag"
	"hdlts/internal/platform"
	"hdlts/internal/wire"
)

// The problem's wire form is {"graph": {...}, "procs": n,
// "bandwidth": [[...]]?, "costs": [[...]]}: the workflow (dag's wire
// form), the processor count, the pairwise bandwidth matrix when it is
// not uniform, and the W matrix as per-task rows. Its indented rendering
// (WriteJSON) is canonical: it keys the job result cache, so its bytes
// must never change.

// appendJSON writes the problem as one value into w.
func (pr *Problem) appendJSON(w *wire.Writer) {
	procs := pr.NumProcs()
	w.BeginObject()
	w.Key("graph")
	pr.G.AppendJSON(w)
	w.Key("procs")
	w.Int(procs)
	if !pr.uniformBandwidth() {
		w.Key("bandwidth")
		w.BeginArray()
		for a := 0; a < procs; a++ {
			w.BeginArray()
			for b := 0; b < procs; b++ {
				if a == b {
					w.Float(0)
				} else {
					w.Float(pr.P.Bandwidth(platform.Proc(a), platform.Proc(b)))
				}
			}
			w.EndArray()
		}
		w.EndArray()
	}
	w.Key("costs")
	if pr.NumTasks() == 0 {
		w.Null()
	} else {
		w.BeginArray()
		for t := 0; t < pr.NumTasks(); t++ {
			w.BeginArray()
			for _, v := range pr.W.RowView(t) {
				w.Float(v)
			}
			w.EndArray()
		}
		w.EndArray()
	}
	w.EndObject()
}

// uniformBandwidth reports whether every link has bandwidth 1, in which
// case the wire form omits the bandwidth matrix.
func (pr *Problem) uniformBandwidth() bool {
	for a := 0; a < pr.NumProcs(); a++ {
		for b := 0; b < pr.NumProcs(); b++ {
			if a != b && pr.P.Bandwidth(platform.Proc(a), platform.Proc(b)) != 1 {
				return false
			}
		}
	}
	return true
}

// Canonicalize brings a freshly decoded problem, not yet solved or shared,
// to what decoding its own canonical form gives: every adjacency list in
// wire order, and a bandwidth matrix of unit links replaced by the uniform
// platform the wire form leaves it as. Solvers that break ties by arc
// order then schedule it as they schedule its canonical bytes.
func (pr *Problem) Canonicalize() {
	pr.G.SortArcs()
	if !pr.P.Uniform() && pr.uniformBandwidth() {
		pr.P = platform.MustUniform(pr.NumProcs())
	}
}

// WriteJSON serialises the problem in its canonical indented form.
func (pr *Problem) WriteJSON(w io.Writer) error {
	jw := wire.GetWriter(true)
	defer jw.Free()
	if err := pr.AppendCanonical(jw); err != nil {
		return err
	}
	_, err := w.Write(jw.Bytes())
	return err
}

// AppendCanonical writes the canonical form, trailing newline included,
// into an empty indented Writer.
func (pr *Problem) AppendCanonical(w *wire.Writer) error {
	if err := pr.AppendJSON(w); err != nil {
		return err
	}
	w.Newline()
	return nil
}

// AppendJSON writes the problem as one value into w, with the canonical
// form's members and order; into a compact Writer it writes the bytes
// json.Compact makes of the canonical form.
func (pr *Problem) AppendJSON(w *wire.Writer) error {
	pr.appendJSON(w)
	if err := w.Err(); err != nil {
		return fmt.Errorf("sched: encode problem: %w", err)
	}
	return nil
}

// ReadProblemJSON deserialises and validates the first JSON value in r as
// a problem; anything after it is ignored.
func ReadProblemJSON(r io.Reader) (*Problem, error) {
	data, release, err := wire.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sched: decode problem: %w", err)
	}
	defer release()
	return ScanProblem(wire.NewScanner(data))
}

// ScanProblem decodes and validates one problem value at the scanner's
// cursor in one pass: the graph is built as it is read, and the cost and
// bandwidth numbers are parsed into arenas that platform.CostsFromRows
// and NewWithBandwidth read through row views. It consumes the whole
// value even when the problem is invalid, so a caller embedding the
// problem in a larger document can keep reading; when the document
// itself is malformed the error wraps s.Err().
//
// The accepted input is exactly encoding/json's for the wire form: keys
// match case-insensitively, unknown keys are skipped, a repeated key
// decodes over the earlier value (array elements merge slot by slot, as
// reflection does), null leaves a number unchanged and empties an array,
// and "procs" must be an integer. "procs" is ignored when a bandwidth
// matrix is given.
func ScanProblem(s *wire.Scanner) (*Problem, error) {
	r := problemReader{s: s}
	r.value()
	if s.Err() != nil {
		return nil, fmt.Errorf("sched: decode problem: %w", s.Err())
	}
	if r.err != nil {
		return nil, fmt.Errorf("sched: decode problem: %w", r.err)
	}
	if r.graph == nil {
		return nil, fmt.Errorf("sched: problem file has no graph")
	}
	var pl *platform.Platform
	var err error
	if r.bandwidth.set {
		pl, err = platform.NewWithBandwidth(r.bandwidth.rows())
	} else {
		pl, err = platform.NewUniform(r.procs)
	}
	if err != nil {
		return nil, err
	}
	w, err := platform.CostsFromRows(r.costs.rows())
	if err != nil {
		return nil, err
	}
	return newProblem(r.graph, pl, w) // dag.ScanJSON validated the graph
}

type problemReader struct {
	s         *wire.Scanner
	err       error // first non-syntax error; the scan continues past it
	graph     *dag.Graph
	procs     int
	bandwidth matrix
	costs     matrix
}

func (r *problemReader) fail(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

func (r *problemReader) value() {
	s := r.s
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
		return
	case wire.Object:
	default:
		s.Skip()
		r.fail(fmt.Errorf("cannot decode %s into a problem", k))
		return
	}
	obj := s.Object()
	for obj.Next() {
		switch {
		case obj.Is("graph"):
			if s.Null() {
				r.graph = nil
				continue
			}
			g, err := dag.ScanJSON(s)
			r.fail(err)
			r.graph = g
		case obj.Is("bandwidth"):
			r.bandwidth.scan(r)
		case obj.Is("costs"):
			r.costs.scan(r)
		case obj.Is("procs"):
			r.fail(s.IntInto(&r.procs))
		default:
			s.Skip()
		}
	}
}

// matrix decodes a [][]float64 value into one flat arena. Row i occupies
// vals[start:start+hi], where hi counts every element the row has ever
// held: a repeated key decodes element (i, j) over the old one and a null
// element keeps it, as encoding/json does when decoding into an existing
// slice.
type matrix struct {
	vals  []float64
	slots []rowSlot
	n     int  // rows in the current value
	set   bool // a non-null array was decoded last
}

type rowSlot struct{ start, hi, n int }

func (m *matrix) scan(r *problemReader) {
	s := r.s
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
		m.slots, m.n, m.set = m.slots[:0], 0, false
		return
	case wire.Array:
	default:
		s.Skip()
		r.fail(fmt.Errorf("cannot decode %s into a matrix", k))
		return
	}
	m.set = true
	arr := s.Array()
	i := 0
	for ; arr.Next(); i++ {
		if i == len(m.slots) {
			m.slots = append(m.slots, rowSlot{start: len(m.vals)})
		}
		m.row(r, &m.slots[i])
	}
	if i == 0 {
		m.slots = m.slots[:0]
	}
	m.n = i
}

func (m *matrix) row(r *problemReader, rs *rowSlot) {
	s := r.s
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
		rs.hi, rs.n = 0, 0
		return
	case wire.Array:
	default:
		s.Skip()
		r.fail(fmt.Errorf("cannot decode %s into a matrix row", k))
		return
	}
	arr := s.Array()
	j := 0
	for ; arr.Next(); j++ {
		if j < rs.hi {
			r.fail(s.FloatInto(&m.vals[rs.start+j]))
			continue
		}
		var v float64
		r.fail(s.FloatInto(&v))
		if rs.start+rs.hi != len(m.vals) {
			// The row must grow but another row follows it in the
			// arena: move it to the end.
			start := len(m.vals)
			m.vals = append(m.vals, m.vals[rs.start:rs.start+rs.hi]...)
			rs.start = start
		}
		m.vals = append(m.vals, v)
		rs.hi++
	}
	if j == 0 {
		rs.hi = 0
	}
	rs.n = j
}

// rows returns the decoded matrix as row views into the arena, nil for a
// null or absent value.
func (m *matrix) rows() [][]float64 {
	if !m.set {
		return nil
	}
	out := make([][]float64, m.n)
	for i, rs := range m.slots[:m.n] {
		out[i] = m.vals[rs.start : rs.start+rs.n]
	}
	return out
}
