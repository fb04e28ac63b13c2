package wire_test

import (
	"bytes"
	"math/rand"
	"testing"

	"hdlts/internal/gen"
	"hdlts/internal/wire"
)

// BenchmarkScanNumbers times the scanner's number conversion alone, per
// number, over the literals of a compact 1000-task request: the problem
// layer/decode/v1k decodes (same generator parameters and seed), its
// numbers laid end to end in one array. Literals with a point or an
// exponent go through FloatInto, the rest through IntInto, as the
// problem reader takes W costs and edge data, and task indices.
func BenchmarkScanNumbers(b *testing.B) {
	pr, err := gen.Random(gen.Params{V: 1000, Alpha: 1.5, Density: 3, CCR: 2, Procs: 8, WDAG: 80, Beta: 1.2},
		rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	w := wire.GetWriter(false)
	defer w.Free()
	if err := pr.AppendJSON(w); err != nil {
		b.Fatal(err)
	}
	var lits [][]byte
	collectNumbers(b, wire.NewScanner(w.Bytes()), &lits)
	doc := append(append([]byte("["), bytes.Join(lits, []byte(","))...), ']')
	isFloat := make([]bool, len(lits))
	for i, lit := range lits {
		isFloat[i] = bytes.ContainsAny(lit, ".eE")
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s := wire.NewScanner(doc)
		var f float64
		var v int
		for i, it := 0, s.Array(); it.Next(); i++ {
			if isFloat[i] {
				err = s.FloatInto(&f)
			} else {
				err = s.IntInto(&v)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lits)), "ns/number")
}

// collectNumbers appends the literal of every number in the value at
// the scanner's cursor to lits, in document order.
func collectNumbers(b *testing.B, s *wire.Scanner, lits *[][]byte) {
	switch s.Peek() {
	case wire.Object:
		for it := s.Object(); it.Next(); {
			collectNumbers(b, s, lits)
		}
	case wire.Array:
		for it := s.Array(); it.Next(); {
			collectNumbers(b, s, lits)
		}
	case wire.Number:
		raw, err := s.Raw()
		if err != nil {
			b.Fatal(err)
		}
		*lits = append(*lits, raw)
	default:
		s.Skip()
	}
	if s.Err() != nil {
		b.Fatal(s.Err())
	}
}
