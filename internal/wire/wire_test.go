package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestAppendFloatMatchesStdlib(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789e13,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 1.5e-300, 2.5e300, 12.345678901234567, -3.25e-9}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range vals {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			if _, err := AppendFloat(nil, f); err == nil {
				t.Errorf("AppendFloat(%v) accepted a non-finite value", f)
			}
			continue
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, %v; encoding/json writes %s", f, got, err, want)
		}
	}
}

func TestAppendStringMatchesStdlib(t *testing.T) {
	strs := []string{"", "plain", `quote " and \ slash /`, "<a href='x'>&amp;</a>", "\x00\x01\x08\x0c\n\r\t\x1f\x7f",
		"caf\xc3\xa9", "\xff\xfe bad", "\xe2\x80\xa8 sep \xe2\x80\xa9", "\xed\xa0\x80 surrogate bytes", "emoji \xf0\x9f\x98\x80", "trunc \xe2\x80"}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

// writeTree replays a decoded JSON tree into w.
func writeTree(w *Writer, v any) {
	switch v := v.(type) {
	case nil:
		w.Null()
	case bool:
		w.Bool(v)
	case float64:
		w.Float(v)
	case string:
		w.String(v)
	case []any:
		w.BeginArray()
		for _, e := range v {
			writeTree(w, e)
		}
		w.EndArray()
	case map[string]any:
		// encoding/json sorts map keys; do the same.
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sortStrings(keys)
		w.BeginObject()
		for _, k := range keys {
			w.Key(k)
			writeTree(w, v[k])
		}
		w.EndObject()
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestWriterMatchesEncoder(t *testing.T) {
	docs := []string{`{}`, `[]`, `{"a":[],"b":{},"c":[[],[1,{}]],"d":null,"e":true,"f":"x<y"}`,
		`[1,[2,[3,[4]]],{"k":{"k":{"k":[0.5,-0,1e-9]}}}]`, `"top"`, `7`, `null`}
	for _, doc := range docs {
		var v any
		if err := json.Unmarshal([]byte(doc), &v); err != nil {
			t.Fatal(err)
		}
		for _, indent := range []bool{false, true} {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			if indent {
				enc.SetIndent("", "  ")
			}
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			w := GetWriter(indent)
			writeTree(w, v)
			w.Newline()
			if !bytes.Equal(w.Bytes(), want.Bytes()) {
				t.Errorf("indent=%v %s:\n got %s\nwant %s", indent, doc, w.Bytes(), want.Bytes())
			}
			w.Free()
		}
	}
}

func TestStrMatchesStdlib(t *testing.T) {
	lits := []string{`""`, `"abc"`, `"\"\\\/\b\f\n\r\t"`, `"\u00e9\u0041"`, `"\ud83d\ude00"`, `"\ud83d"`, `"\ude00x"`,
		`"\ud83d\u0041"`, `"\ud83dabc"`, "\"\xff\xfe\"", "\"caf\xc3\xa9\"", `"\u0000"`, `"\uD83D\uDE00"`}
	for _, lit := range lits {
		var want string
		if err := json.Unmarshal([]byte(lit), &want); err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		got, err := NewScanner([]byte(lit)).Str()
		if err != nil || string(got) != want {
			t.Errorf("Str(%s) = %q, %v; encoding/json decodes %q", lit, got, err, want)
		}
	}
}

func TestMatchFollowsStdlibFolding(t *testing.T) {
	type probe struct {
		Procs int `json:"procs"`
	}
	for _, key := range []string{"procs", "PROCS", "Procs", "proc\u017f", "pro\u0441s", "procss", "proc", "", "pr\u212aocs"} {
		var p probe
		if err := json.Unmarshal([]byte(`{"`+key+`":1}`), &p); err != nil {
			t.Fatal(err)
		}
		if got, want := match([]byte(key), "procs"), p.Procs == 1; got != want {
			t.Errorf("match(%q, procs) = %v, encoding/json %v", key, got, want)
		}
	}
	var k struct {
		Kind int `json:"kind"`
	}
	if err := json.Unmarshal([]byte(`{"\u212aind":1}`), &k); err != nil || k.Kind != 1 || !match([]byte("\u212aind"), "kind") {
		t.Errorf("Kelvin sign should fold to k")
	}
}

func TestScannerErrors(t *testing.T) {
	for _, doc := range []string{``, `{`, `{"a"}`, `{"a":}`, `{"a":1,}`, `[1,]`, `[,1]`, `01`, `1.`, `1e`, `-`, `"\x"`, "\"a\x01\"",
		`tru`, `nul`, `{"a":1 "b":2}`, `[1 2]`, `"\u12"`, `{1:2}`} {
		s := NewScanner([]byte(doc))
		s.Skip()
		valid := s.Err() == nil && s.AtEOF()
		if valid != json.Valid([]byte(doc)) {
			t.Errorf("%q: scanner valid=%v, encoding/json %v (err %v)", doc, valid, !valid, s.Err())
		}
	}
	deep := strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth)
	s := NewScanner([]byte(deep))
	if s.Skip(); s.Err() != nil {
		t.Errorf("depth %d rejected: %v", maxDepth, s.Err())
	}
	s = NewScanner([]byte("[" + deep + "]"))
	if s.Skip(); s.Err() == nil {
		t.Errorf("depth %d accepted", maxDepth+1)
	}
}

// FuzzSkipMatchesValid holds the scanner's syntax check to encoding/json's:
// a document is accepted exactly when json.Valid accepts it.
func FuzzSkipMatchesValid(f *testing.F) {
	for _, seed := range []string{`{"a":[1,2,{"b":null}],"c":"\u00e9"}`, `[]`, `{"a":1,}`, `-0.5e+3`, "\"\xff\"", `{"a" : true }`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewScanner(data)
		s.Skip()
		if got, want := s.Err() == nil && s.AtEOF(), json.Valid(data); got != want {
			t.Fatalf("scanner valid=%v, json.Valid=%v (err %v)", got, want, s.Err())
		}
	})
}

// numberSeeds are literals at the edges of the scanner's number
// conversion: the exact float path (2^53 and 10^22), the 19 digits a
// uint64 mantissa holds, int64 and uint64 range, subnormals, overflow,
// signed zeros, leading zeros, and malformed literals.
var numberSeeds = []string{"0", "-0", "0.0", "-0.000", "1", "10", "123456789012345", "4503599627370495", "4503599627370496",
	"9007199254740993", "1234567890123456789", "12345678901234567890", "0.1", "0.000000123", "1e22", "1e23",
	"1.5e-22", "1.5e-23", "3e37", "12e36", "1e15", "1000000000000000e22", "17.698535185700088", "37.93230500720051",
	"1E+2", "1e-0", "1e0004", "1e00004", "00", "0.00000000000000000000000000001234", "-12.5e3",
	"9007199254740991", "9007199254740992", "-9007199254740993", "9007199254740991.5", "900719925474099.3e1",
	"9999999999999999999", "10000000000000000000", "99999999999999999999", "-1234567890123456789", "1.234567890123456789",
	"12345678901234567891", "1.2345678901234567891", "0.1234567890123456789e-5", "123456789012345678e5",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"18446744073709551615", "18446744073709551616", "-1e22", "1e-22", "1e-23", "9.999999999999999e22",
	"5e-324", "4.9e-324", "2e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "1e-307", "1e-320", "1e-400", "-1e-400",
	"1e308", "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e309", "-1e309",
	"0e999999", "-0e-999999", "1e99999999999999999999", "0.000000000000000000000", "-0.0e0",
	"0.000000000000000000000000000000000000000001", "0.0000000000000000000000123456789012345678901",
	"0.00000000000000000000001234567890123456789", "00.5", "-", "-x", "1.", "1.e5", "1e", "1e+", "1e-x", "-01",
	"1.5.3", "1e5.3", "1E5e", "+1", ".5", " \t\n\r7", "12345678.12345678", "1234567812345678.5",
	"1.2345678e2x", "7,", "7]", "7}", "3 ", "-0.5E-3 "}

// TestFloatMatchesParseFloat holds the scanner's number grammar and
// conversion to json.Valid and strconv over numberSeeds and random
// literals (see checkNumber).
func TestFloatMatchesParseFloat(t *testing.T) {
	lits := append([]string(nil), numberSeeds...)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		lits = append(lits, strconv.FormatFloat(rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(40)-20)), 'f', rng.Intn(18), 64),
			strconv.FormatFloat(rng.NormFloat64(), 'e', rng.Intn(20), 64), strconv.Itoa(rng.Int()>>rng.Intn(60)),
			strconv.FormatFloat(math.Float64frombits(rng.Uint64()), 'g', -1, 64))
	}
	for _, lit := range lits {
		checkNumber(t, []byte(lit))
	}
}

// FuzzNumberMatchesStrconv holds FloatInto, IntInto and Uint64Into on
// arbitrary bytes to json.Valid and strconv (see checkNumber).
func FuzzNumberMatchesStrconv(f *testing.F) {
	for _, seed := range numberSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkNumber(t, data)
	})
}

// checkNumber holds the scanner's numeric accessors on data to an oracle
// built from json.Valid and strconv. When data, after JSON whitespace,
// starts a number, the literal the scanner should read is the longest
// prefix json.Valid accepts; if a longer prefix of data still begins some
// valid number (it does when appending "0" makes it valid), the grammar
// broke inside the literal and the scanner must report a SyntaxError at
// the first byte past that longer prefix. Otherwise each accessor must
// consume exactly the literal and agree with strconv.ParseFloat,
// ParseInt or ParseUint: the same bits, or a TypeError at the literal
// that leaves the destination as it was.
func checkNumber(t *testing.T, data []byte) {
	t.Helper()
	ws := 0
	for ws < len(data) && strings.IndexByte(" \t\n\r", data[ws]) >= 0 {
		ws++
	}
	if ws == len(data) || data[ws] != '-' && (data[ws] < '0' || data[ws] > '9') {
		return
	}
	valid, begins := 0, 0 // the longest prefixes that are, and that begin, a number
	for n := 1; ws+n <= len(data) && strings.IndexByte("0123456789+-.eE", data[ws+n-1]) >= 0; n++ {
		p := data[ws : ws+n]
		if json.Valid(p) {
			valid = n
		} else if !json.Valid(append(p[:n:n], '0')) {
			break
		}
		begins = n
	}
	lit := string(data[ws : ws+valid])
	for _, acc := range []struct {
		want string
		read func(*Scanner) (uint64, error)
		std  func() (uint64, error)
	}{
		{"float64", func(s *Scanner) (uint64, error) {
			v := math.Pi
			err := s.FloatInto(&v)
			return math.Float64bits(v), err
		}, func() (uint64, error) {
			v, err := strconv.ParseFloat(lit, 64)
			return math.Float64bits(v), err
		}},
		{"int", func(s *Scanner) (uint64, error) {
			v := 42
			err := s.IntInto(&v)
			return uint64(v), err
		}, func() (uint64, error) {
			v, err := strconv.ParseInt(lit, 10, strconv.IntSize)
			return uint64(v), err
		}},
		{"uint64", func(s *Scanner) (uint64, error) {
			v := uint64(42)
			err := s.Uint64Into(&v)
			return v, err
		}, func() (uint64, error) { return strconv.ParseUint(lit, 10, 64) }},
	} {
		s := NewScanner(data)
		unset, _ := acc.read(NewScanner([]byte("null")))
		got, err := acc.read(s)
		if begins > valid || valid == 0 {
			if se, ok := err.(*SyntaxError); !ok || se.Offset != ws+begins || s.Err() != err || got != unset {
				t.Errorf("%q into %s: got %#x, %v; want a syntax error at offset %d", data, acc.want, got, err, ws+begins)
			}
			continue
		}
		want, werr := acc.std()
		if s.pos != ws+valid {
			t.Errorf("%q into %s: cursor at %d, want %d past %q", data, acc.want, s.pos, ws+valid, lit)
		}
		if werr != nil {
			te, ok := err.(*TypeError)
			if !ok || te.Offset != ws || te.Value != "number "+lit || te.Want != acc.want || got != unset || s.Err() != nil {
				t.Errorf("%q into %s: got %#x, %v; strconv refuses %q (%v)", data, acc.want, got, err, lit, werr)
			}
			continue
		}
		if err != nil || got != want {
			t.Errorf("%q into %s: got %#x, %v; strconv reads %#x", data, acc.want, got, err, want)
		}
	}
}

// embedOracle renders raw as a json.RawMessage nested depth arrays deep,
// compact or through an indenting Encoder; ok is false when encoding/json
// rejects raw.
func embedOracle(raw []byte, depth int, indent bool) (out []byte, ok bool) {
	var v any = json.RawMessage(raw)
	for i := 0; i < depth; i++ {
		v = []any{v}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// rawWire renders raw with Writer.Raw nested depth arrays deep, compact
// or indented, as embedOracle renders it.
func rawWire(raw []byte, depth int, indent bool) []byte {
	w := GetWriter(indent)
	defer w.Free()
	for i := 0; i < depth; i++ {
		w.BeginArray()
	}
	w.Raw(raw)
	for i := 0; i < depth; i++ {
		w.EndArray()
	}
	w.Newline()
	return append([]byte(nil), w.Bytes()...)
}

// checkRaw holds Writer.Raw, the one way pre-encoded JSON enters a
// Writer, to encoding/json's embedding of raw as a json.RawMessage depth
// arrays deep: indented for any valid raw, and compact for the bytes
// json.Marshal writes for it, the only input a compact Raw is given.
// Invalid raw is only written, to show that Raw does not panic on it.
func checkRaw(t *testing.T, raw []byte, depth int) {
	t.Helper()
	if !json.Valid(raw) {
		rawWire(raw, depth, true)
		rawWire(raw, depth, false)
		return
	}
	expectRaw(t, raw, raw, depth, true)
	expectRaw(t, marshalRaw(t, raw), raw, depth, false)
}

// checkRawCompact holds Raw, given the compact bytes json.Marshal writes
// for a valid raw, as this process's own output is, to encoding/json's
// embedding of raw, compact and indented. Invalid raw is skipped.
func checkRawCompact(t *testing.T, raw []byte, depth int) {
	t.Helper()
	if !json.Valid(raw) {
		return
	}
	in := marshalRaw(t, raw)
	expectRaw(t, in, raw, depth, false)
	expectRaw(t, in, raw, depth, true)
}

// marshalRaw returns the compact, escaped bytes json.Marshal writes for
// the valid value raw.
func marshalRaw(t *testing.T, raw []byte) []byte {
	t.Helper()
	out, err := json.Marshal(json.RawMessage(raw))
	if err != nil {
		t.Fatalf("json.Marshal(%q): %v", raw, err)
	}
	return out
}

// expectRaw checks that Raw(in), depth arrays deep, writes what
// encoding/json writes for raw as a json.RawMessage there.
func expectRaw(t *testing.T, in, raw []byte, depth int, indent bool) {
	t.Helper()
	want, ok := embedOracle(raw, depth, indent)
	if !ok {
		t.Fatalf("encoding/json refuses valid %q", raw)
	}
	if got := rawWire(in, depth, indent); !bytes.Equal(got, want) {
		t.Errorf("Raw(%q) depth %d indent=%v:\n got %s\nwant %s", in, depth, indent, got, want)
	}
}

var embedSeeds = []string{`{"t":1,"kind":"place","task":"<a&b>","vals":[1, 2.50, -0e+3]}`, " [ ] ", "{ }", `[{},[],[{}],{"a":[]}]`,
	`"\u00e9\/\n"`, "\"sep\xe2\x80\xa8\xe2\x80\xa9 bad\xff \xe2\x80\"", "{\n  \"a\" :\t[ 1 ,\r\n 2 ] ,\"b\":{\"c\":null}}", `7`, `true`,
	`{"a":1,}`, `[1 2]`, ``, `{} {}`, strings.Repeat(`[{"a":`, 20) + "1" + strings.Repeat("}]", 20)}

// TestEmbedMatchesEncoder: Raw embeds every seed as encoding/json embeds
// a json.RawMessage, compact and indented, at depths 0 to 7.
func TestEmbedMatchesEncoder(t *testing.T) {
	seeds := append(embedSeeds, `{"graph":{"tasks":[{"name":"a"},{"name":"b","pseudo":true}],"edges":null},"costs":[[1,2],[]]}`,
		`["{,}[:]\"\\",{"":{}}]`, `[[[[]]],{"a":{"b":{"c":[1e-7,-0]}}}]`, "\t{ \"<&>\" : [ \"\xe2\x80\xa9\" , { } ] }\n",
		`"\u2028<\"&\\>"`, "[\n]", "\"\xe2\x80\"", "\"\xe2\"")
	for _, raw := range seeds {
		for depth := 0; depth < 8; depth++ {
			checkRaw(t, []byte(raw), depth)
		}
	}
}

// FuzzEmbedMatchesEncoder holds Writer.Raw to encoding/json's embedding
// of a json.RawMessage at any depth up to 7, as checkRaw does.
func FuzzEmbedMatchesEncoder(f *testing.F) {
	for i, seed := range embedSeeds {
		f.Add([]byte(seed), uint8(i%4))
	}
	f.Fuzz(func(t *testing.T, raw []byte, depth uint8) {
		checkRaw(t, raw, int(depth%8))
	})
}

// TestRawMatchesEmbed: on compact values, as this process writes them,
// Raw writes encoding/json's embedding, compact and indented, at depths 0
// to 7.
func TestRawMatchesEmbed(t *testing.T) {
	seeds := append(embedSeeds, `{"graph":{"tasks":[{"name":"a"},{"name":"b","pseudo":true}],"edges":null},"costs":[[1,2],[]]}`,
		`["{,}[:]\"\\",{"":{}}]`, `[[[[]]],{"a":{"b":{"c":[1e-7,-0]}}}]`)
	for _, raw := range seeds {
		for depth := 0; depth < 8; depth++ {
			checkRawCompact(t, []byte(raw), depth)
		}
	}
}

// FuzzRawMatchesEmbed holds Writer.Raw on compact values to
// encoding/json's embedding, as checkRawCompact does.
func FuzzRawMatchesEmbed(f *testing.F) {
	for i, seed := range embedSeeds {
		f.Add([]byte(seed), uint8(i%4))
	}
	f.Fuzz(func(t *testing.T, raw []byte, depth uint8) {
		checkRawCompact(t, raw, int(depth%8))
	})
}

// TestRawMatchesRawMessage holds Raw to what encoding/json hands a
// json.RawMessage member: the value's own bytes, inner whitespace and
// escapes kept, and the same documents rejected.
func TestRawMatchesRawMessage(t *testing.T) {
	for _, doc := range append(embedSeeds, " null ", `"a<b>&c"`, "-1.5e+3\t", `"é"`, `[1,{"x":[]} ]`, `nul`, `"open`) {
		wrapped := []byte(`{"v":` + doc + `}`)
		var want struct{ V json.RawMessage }
		werr := json.Unmarshal(wrapped, &want)
		s := NewScanner(wrapped)
		var got []byte
		var gerr error
		obj := s.Object()
		for obj.Next() {
			got, gerr = s.Raw()
		}
		if gerr == nil && !s.AtEOF() {
			gerr = s.Err()
		}
		if (werr == nil) != (gerr == nil) || werr == nil && !bytes.Equal(got, want.V) {
			t.Errorf("Raw in %s = %q (%v), encoding/json %q (%v)", wrapped, got, gerr, want.V, werr)
		}
	}
}

// TestUint64MatchesStdlib holds Uint64Into to encoding/json's decoding
// into a uint64: the same values accepted and converted, null leaving the
// destination as it was.
func TestUint64MatchesStdlib(t *testing.T) {
	for _, lit := range []string{"0", "1", "-0", "-1", "1e3", "1.0", "0.5", "18446744073709551615", "18446744073709551616",
		"99999999999999999999", "null", `"7"`, "true", "[]", "{}", "-"} {
		want, got := uint64(42), uint64(42)
		werr := json.Unmarshal([]byte(lit), &want)
		gerr := NewScanner([]byte(lit)).Uint64Into(&got)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Errorf("Uint64Into(%s) = %d (%v), encoding/json %d (%v)", lit, got, gerr, want, werr)
		}
	}
}

// TestTimeMatchesMarshalJSON holds Writer.Time to time.Time.MarshalJSON:
// the same bytes, and an error where MarshalJSON refuses the time.
func TestTimeMatchesMarshalJSON(t *testing.T) {
	for _, tm := range []time.Time{
		{},
		time.Date(2026, 10, 19, 21, 28, 1, 123456789, time.UTC),
		time.Date(2026, 1, 2, 3, 4, 5, 500000000, time.FixedZone("", 2*3600)),
		time.Date(1999, 12, 31, 23, 59, 59, 0, time.FixedZone("", -(9*3600+30*60))),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", -(23*3600+59*60+59))),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 100*3600)),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", -30)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", -3600)),
		time.Unix(0, 0).In(time.FixedZone("", 5*3600+45*60)),
	} {
		want, werr := tm.MarshalJSON()
		w := GetWriter(false)
		w.Time(tm)
		if werr != nil {
			if w.Err() == nil {
				t.Errorf("Time(%v) wrote %s; MarshalJSON refuses it: %v", tm, w.Bytes(), werr)
			}
		} else if w.Err() != nil || !bytes.Equal(w.Bytes(), want) {
			t.Errorf("Time(%v) = %s, %v; MarshalJSON writes %s", tm, w.Bytes(), w.Err(), want)
		}
		w.Free()
	}
}

// TestTruncateSwap: Truncate takes back a document and the error it left,
// and Swap hands over the bytes and goes on in the buffer given.
func TestTruncateSwap(t *testing.T) {
	var w Writer
	w.String("a")
	w.Newline()
	n := len(w.Bytes())
	w.Float(math.NaN())
	if w.Err() == nil {
		t.Fatal("NaN kept no error")
	}
	w.Truncate(n)
	if w.Err() != nil || string(w.Bytes()) != "\"a\"\n" {
		t.Fatalf("after Truncate: %q, %v", w.Bytes(), w.Err())
	}
	spare := make([]byte, 3, 64)
	if got := w.Swap(spare); string(got) != "\"a\"\n" {
		t.Fatalf("Swap returned %q", got)
	}
	w.Int(7)
	if string(w.Bytes()) != "7" || &w.Bytes()[0] != &spare[0] {
		t.Fatalf("after Swap: %q, not in the buffer given", w.Bytes())
	}
}
