// Package wire is the project's JSON codec for the problem and schedule
// wire formats. It reads and writes bytes directly — no reflection, no
// intermediate trees — while accepting and producing exactly what the
// standard library's encoding/json does for the same Go structures:
//
//   - Scanner walks one in-memory document in a single pass. Readers built
//     on it (dag, sched, server, and the durable WAL and snapshot replay
//     with the job record's decoder) decode straight into their final
//     structures with encoding/json's semantics: keys match
//     case-insensitively, unknown keys can be skipped, the last of
//     a repeated key wins, and null leaves scalars untouched.
//   - Writer appends compact or indented JSON with encoding/json's number
//     format and string escaping, so its bytes match json.Marshal and an
//     Encoder with SetIndent("", "  ") at every depth; Raw copies a
//     pre-encoded value in as encoding/json embeds a json.RawMessage.
package wire

import (
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: deeper documents are syntax
// errors.
const maxDepth = 10000

// Kind classifies the JSON value at the scanner's position.
type Kind uint8

// Value kinds reported by Scanner.Peek. Invalid means the next byte cannot
// start a value, the input is exhausted, or a syntax error was recorded.
const (
	Invalid Kind = iota
	Null
	Bool
	Number
	String
	Array
	Object
)

var kindNames = [...]string{"invalid", "null", "bool", "number", "string", "array", "object"}

func (k Kind) String() string { return kindNames[k] }

// SyntaxError reports malformed JSON. It is fatal: once a Scanner records
// one, every accessor fails.
type SyntaxError struct {
	Msg    string
	Offset int
}

func (e *SyntaxError) Error() string { return e.Msg }

// TypeError reports a well-formed value of the wrong kind (or a number
// out of range) for its destination. It is not fatal: the value has been
// consumed, and the reader decides whether to go on.
type TypeError struct {
	Value  string // the JSON kind found, or "number <literal>"
	Want   string // the Go type wanted
	Offset int
}

func (e *TypeError) Error() string {
	return "cannot decode " + e.Value + " into " + e.Want + " at offset " + strconv.Itoa(e.Offset)
}

// Scanner reads JSON values from an in-memory document. Readers drive it
// value by value: Peek to classify, then a typed accessor, the Object and
// Array iterators, or Skip. Each consumes exactly one complete value
// unless the document is malformed, in which case Err reports the first
// syntax error and every later call fails.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	err   error
	stack []byte // container kinds Skip is inside
	key   []byte // reused buffer for keys that need unescaping
	str   []byte // reused buffer for strings that need unescaping
}

// NewScanner returns a scanner positioned at the start of data. Values it
// returns never alias data except the []byte views of Key, Str and Raw.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// Err returns the first syntax error, if any.
func (s *Scanner) Err() error { return s.err }

// AtEOF skips whitespace and reports whether the document ends there: the
// trailing-data check for inputs that must hold exactly one value. Any
// other byte is recorded as a syntax error.
func (s *Scanner) AtEOF() bool {
	if s.err != nil {
		return false
	}
	s.skipSpace()
	if s.pos < len(s.data) {
		s.failHere("after top-level value")
		return false
	}
	return true
}

func (s *Scanner) fail(msg string) {
	if s.err == nil {
		s.err = &SyntaxError{Msg: msg, Offset: s.pos}
	}
}

// failHere records a syntax error at the cursor, phrased like
// encoding/json's: the offending byte plus where it was found, or the
// end of the input.
func (s *Scanner) failHere(context string) {
	if s.pos >= len(s.data) {
		s.fail("unexpected end of JSON input")
		return
	}
	s.fail("invalid character " + quoteChar(s.data[s.pos]) + " " + context)
}

// failAt moves the cursor to offset i and records a syntax error there.
func (s *Scanner) failAt(i int, context string) {
	s.pos = i
	s.failHere(context)
}

func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	q := strconv.Quote(string(rune(c)))
	return "'" + q[1:len(q)-1] + "'"
}

func (s *Scanner) skipSpace() { s.pos = skipSpace(s.data, s.pos) }

// skipSpace returns the offset of the first non-whitespace byte at or
// after data[i:].
func skipSpace(data []byte, i int) int {
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// Peek skips whitespace and classifies the next value without consuming
// it.
func (s *Scanner) Peek() Kind {
	if s.err != nil {
		return Invalid
	}
	s.skipSpace()
	if s.pos >= len(s.data) {
		return Invalid
	}
	switch c := s.data[s.pos]; {
	case c == '{':
		return Object
	case c == '[':
		return Array
	case c == '"':
		return String
	case c == 'n':
		return Null
	case c == 't' || c == 'f':
		return Bool
	case c == '-' || (c >= '0' && c <= '9'):
		return Number
	}
	return Invalid
}

// Null consumes a null literal and reports true when one is next; any
// other value is left in place.
func (s *Scanner) Null() bool {
	return s.Peek() == Null && s.literal("null")
}

func (s *Scanner) literal(word string) bool {
	for i := 0; i < len(word); i++ {
		if s.pos+i >= len(s.data) || s.data[s.pos+i] != word[i] {
			s.pos += i
			s.failHere("in literal " + word + " (expecting " + quoteChar(word[i]) + ")")
			return false
		}
	}
	s.pos += len(word)
	return true
}

// mismatch consumes the value at the cursor and returns the TypeError for
// a destination that wanted another kind.
func (s *Scanner) mismatch(got Kind, want string) error {
	off := s.pos
	s.Skip()
	if s.err != nil {
		return s.err
	}
	return &TypeError{Value: got.String(), Want: want, Offset: off}
}

// float converts the number at the cursor in the pass that checks its
// grammar (numLit.scan and numLit.float). A literal that pass cannot prove
// exact, or one that breaks the grammar, goes to strconv.ParseFloat, the
// conversion encoding/json uses, so values and errors are its: a number
// out of float64 range is a TypeError.
func (s *Scanner) float() (float64, error) {
	var n numLit
	if n.scan(s.data, s.pos) {
		if f, ok := n.float(); ok {
			s.pos = n.end
			return f, nil
		}
	}
	off := s.pos
	lit := s.number()
	if s.err != nil {
		return 0, s.err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, &TypeError{Value: "number " + string(lit), Want: "float64", Offset: off}
	}
	return f, nil
}

// int converts an integer literal of up to maxDigits digits that fits an
// int in the pass that checks its grammar; anything else goes to
// strconv.ParseInt, so fractions, exponents and out-of-range values are
// TypeErrors, as in encoding/json.
func (s *Scanner) int() (int, error) {
	var n numLit
	if n.scan(s.data, s.pos) && n.plain && n.digits <= maxDigits && n.man <= math.MaxInt {
		s.pos = n.end
		if n.neg {
			return -int(n.man), nil
		}
		return int(n.man), nil
	}
	off := s.pos
	lit := s.number()
	if s.err != nil {
		return 0, s.err
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return 0, &TypeError{Value: "number " + string(lit), Want: "int", Offset: off}
	}
	return int(v), nil
}

// The *Into accessors decode one value into a Go destination with
// encoding/json's rules: null leaves *dst unchanged, a value of another
// kind (or out of range) is a TypeError and also leaves it unchanged.

// FloatInto decodes a number or null into *dst.
func (s *Scanner) FloatInto(dst *float64) error {
	switch k := s.Peek(); k {
	case Null:
		s.literal("null")
		return s.err
	case Number:
		v, err := s.float()
		if err == nil {
			*dst = v
		}
		return err
	default:
		return s.mismatch(k, "float64")
	}
}

// IntInto decodes an integer or null into *dst.
func (s *Scanner) IntInto(dst *int) error {
	switch k := s.Peek(); k {
	case Null:
		s.literal("null")
		return s.err
	case Number:
		v, err := s.int()
		if err == nil {
			*dst = v
		}
		return err
	default:
		return s.mismatch(k, "int")
	}
}

// Uint64Into decodes a non-negative integer or null into *dst, as
// encoding/json converts into a uint64: an integer literal of up to
// maxDigits digits converts in the pass that checks its grammar, and
// anything else goes to strconv.ParseUint, so signs, fractions,
// exponents and out-of-range values are TypeErrors.
func (s *Scanner) Uint64Into(dst *uint64) error {
	switch k := s.Peek(); k {
	case Null:
		s.literal("null")
		return s.err
	case Number:
		var n numLit
		if n.scan(s.data, s.pos) && n.plain && !n.neg && n.digits <= maxDigits {
			s.pos = n.end
			*dst = n.man
			return nil
		}
		off := s.pos
		lit := s.number()
		if s.err != nil {
			return s.err
		}
		v, err := strconv.ParseUint(string(lit), 10, 64)
		if err != nil {
			return &TypeError{Value: "number " + string(lit), Want: "uint64", Offset: off}
		}
		*dst = v
		return nil
	default:
		return s.mismatch(k, "uint64")
	}
}

// BoolInto decodes true, false or null into *dst.
func (s *Scanner) BoolInto(dst *bool) error {
	switch k := s.Peek(); k {
	case Null:
		s.literal("null")
		return s.err
	case Bool:
		if v := s.data[s.pos] == 't'; s.literal(boolWord(v)) {
			*dst = v
		}
		return s.err
	default:
		return s.mismatch(k, "bool")
	}
}

func boolWord(v bool) string {
	if v {
		return "true"
	}
	return "false"
}

// StringInto decodes a string or null into *dst.
func (s *Scanner) StringInto(dst *string) error {
	if s.Null() {
		return s.err
	}
	v, err := s.Str()
	if err == nil {
		*dst = string(v)
	}
	return err
}

// Str consumes a string and returns its decoded contents with
// encoding/json's unquoting: escapes resolved, invalid UTF-8 and lone
// surrogates replaced by U+FFFD. The view is valid until the next call.
func (s *Scanner) Str() ([]byte, error) {
	k := s.Peek()
	if k != String {
		return nil, s.mismatch(k, "string")
	}
	raw, plain := s.scanString()
	if s.err != nil {
		return nil, s.err
	}
	if plain {
		return raw, nil
	}
	s.str = unquote(s.str[:0], raw)
	return s.str, nil
}

// number consumes one numeric literal, validating JSON's number grammar.
func (s *Scanner) number() []byte {
	start := s.pos
	end, bad := numberEnd(s.data, start)
	if bad != "" {
		s.failAt(end, bad)
		return nil
	}
	s.pos = end
	return s.data[start:end]
}

// numberEnd returns the offset just past the numeric literal starting at
// data[i]. On a byte that breaks the grammar it returns that byte's offset
// and the syntax error's context instead.
func numberEnd(data []byte, i int) (end int, bad string) {
	if data[i] == '-' {
		i++
	}
	switch {
	case i >= len(data):
		return i, "in numeric literal"
	case data[i] == '0':
		i++
	case data[i] >= '1' && data[i] <= '9':
		i = digitsEnd(data, i+1)
	default:
		return i, "in numeric literal"
	}
	if i < len(data) && data[i] == '.' {
		j := digitsEnd(data, i+1)
		if j == i+1 {
			return j, "after decimal point in numeric literal"
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digitsEnd(data, i)
		if j == i {
			return j, "in exponent of numeric literal"
		}
		i = j
	}
	return i, ""
}

// digitsEnd returns the offset past the run of decimal digits at data[i:].
func digitsEnd(data []byte, i int) int {
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	return i
}

// scanString consumes one string literal and returns its raw contents.
// plain reports that the contents need no unquoting: no escapes and
// valid UTF-8.
func (s *Scanner) scanString() (raw []byte, plain bool) {
	start := s.pos
	end, plain, bad := stringEnd(s.data, start)
	if bad != "" {
		s.failAt(end, bad)
		return nil, false
	}
	s.pos = end
	return s.data[start+1 : end-1], plain
}

// stringEnd returns the offset just past the string literal whose opening
// quote is data[i], and whether its contents are plain. On a byte that
// breaks the grammar it returns that byte's offset and the syntax error's
// context instead.
func stringEnd(data []byte, i int) (end int, plain bool, bad string) {
	i++
	start := i
	plain = true
	ascii := true
	for {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i >= len(data) {
			return i, false, "in string literal"
		}
		switch c := data[i]; {
		case c == '"':
			if plain && !ascii && !utf8.Valid(data[start:i]) {
				plain = false
			}
			return i + 1, plain, ""
		case c == '\\':
			plain = false
			i++
			if i >= len(data) {
				return i, false, "in string escape code"
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k++ {
					if i >= len(data) || !isHex(data[i]) {
						return i, false, "in \\u hexadecimal character escape"
					}
					i++
				}
			default:
				return i, false, "in string escape code"
			}
		case c < 0x20:
			return i, false, "in string literal"
		default:
			ascii = false
			i++
		}
	}
}

// plainByte marks the string bytes stringEnd passes over in its inner
// loop: printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// unquote appends the decoded contents of a syntactically valid string
// body to dst, following encoding/json's unquoteBytes exactly.
func unquote(dst, src []byte) []byte {
	for r := 0; r < len(src); {
		c := src[r]
		switch {
		case c == '\\':
			r++
			switch src[r] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := getu4(src[r-1:])
				r += 5
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(src[r:])); dec != unicode.ReplacementChar {
						dst = utf8.AppendRune(dst, dec)
						r += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, src[r])
			}
			r++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(src[r:])
			if rr == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(dst, unicode.ReplacementChar)
			} else {
				dst = append(dst, src[r:r+size]...)
			}
			r += size
		}
	}
	return dst
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c = c - '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// Skip consumes one complete value of any kind, validating its syntax. It
// walks nested containers iteratively with a local cursor, so deep
// documents cannot exhaust the stack; nesting beyond encoding/json's limit
// is a syntax error.
func (s *Scanner) Skip() {
	if s.err != nil {
		return
	}
	data, i := s.data, s.pos
	base := len(s.stack)
	for {
		i = skipSpace(data, i)
		if i >= len(data) {
			s.failAt(i, "looking for beginning of value")
			return
		}
		switch c := data[i]; {
		case c == '"':
			end, _, bad := stringEnd(data, i)
			if bad != "" {
				s.failAt(end, bad)
				return
			}
			i = end
		case c == '-' || c >= '0' && c <= '9':
			end, bad := numberEnd(data, i)
			if bad != "" {
				s.failAt(end, bad)
				return
			}
			i = end
		case c == 't' || c == 'f' || c == 'n':
			word := "null"
			if c != 'n' {
				word = boolWord(c == 't')
			}
			if len(data)-i < len(word) || string(data[i:i+len(word)]) != word {
				s.pos = i
				s.literal(word)
				return
			}
			i += len(word)
		case c == '{' || c == '[':
			i++
			s.depth++
			s.stack = append(s.stack, c)
			if s.depth > maxDepth {
				s.pos = i
				s.fail("exceeded max depth")
				return
			}
			i = skipSpace(data, i)
			if i >= len(data) || data[i] != c+2 { // '{'+2 == '}', '['+2 == ']'
				// An element or a member's value follows.
				if c == '{' {
					if i = s.memberKey(i); s.err != nil {
						return
					}
				}
				continue
			}
			i++
			s.depth--
			s.stack = s.stack[:len(s.stack)-1]
		default:
			s.failAt(i, "looking for beginning of value")
			return
		}
		// A value ended: consume separators and closing brackets until
		// another value is due or the outermost skipped value is done.
		for {
			if len(s.stack) == base {
				s.pos = i
				return
			}
			i = skipSpace(data, i)
			if i >= len(data) {
				s.pos = i
				s.fail("unexpected end of JSON input")
				return
			}
			top := s.stack[len(s.stack)-1]
			if c := data[i]; c == top+2 {
				i++
				s.depth--
				s.stack = s.stack[:len(s.stack)-1]
				continue
			} else if c != ',' {
				if top == '{' {
					s.failAt(i, "after object key:value pair")
				} else {
					s.failAt(i, "after array element")
				}
				return
			}
			i++
			if top == '{' {
				if i = s.memberKey(i); s.err != nil {
					return
				}
			}
			break
		}
	}
}

// memberKey consumes `"key":` at or after data[i] inside an object Skip is
// walking and returns the offset past the colon, or records the syntax
// error.
func (s *Scanner) memberKey(i int) int {
	data := s.data
	i = skipSpace(data, i)
	if i >= len(data) || data[i] != '"' {
		s.failAt(i, "looking for beginning of object key string")
		return i
	}
	end, _, bad := stringEnd(data, i)
	if bad != "" {
		s.failAt(end, bad)
		return end
	}
	i = skipSpace(data, end)
	if i >= len(data) || data[i] != ':' {
		s.failAt(i, "after object key")
		return i
	}
	return i + 1
}

// Raw consumes one value of any kind, validating it as Skip does, and
// returns its bytes as they appear in the document, without surrounding
// whitespace: what encoding/json hands a json.RawMessage or a
// json.Unmarshaler. The view aliases the document; copy it to keep it.
func (s *Scanner) Raw() ([]byte, error) {
	s.Peek() // skips leading whitespace
	start := s.pos
	s.Skip()
	if s.err != nil {
		return nil, s.err
	}
	return s.data[start:s.pos], nil
}

// ObjectIter walks the members of one object. Obtain it with
// Scanner.Object, then call Next until it returns false; after each true
// the member's value must be consumed (by an accessor or Skip).
type ObjectIter struct {
	s   *Scanner
	n   int
	key []byte
}

// Object consumes the '{' of the object at the cursor. The caller must
// have checked Peek() == Object.
func (s *Scanner) Object() ObjectIter {
	s.pos++
	s.depth++
	if s.depth > maxDepth {
		s.fail("exceeded max depth")
	}
	return ObjectIter{s: s}
}

// Next advances to the next member, consuming its key and colon, and
// reports false at the closing '}' or on a syntax error.
func (it *ObjectIter) Next() bool {
	s := it.s
	if s.err != nil {
		return false
	}
	s.skipSpace()
	if s.pos >= len(s.data) {
		s.fail("unexpected end of JSON input")
		return false
	}
	switch c := s.data[s.pos]; {
	case c == '}':
		s.pos++
		s.depth--
		return false
	case it.n > 0 && c == ',':
		s.pos++
		s.skipSpace()
	case it.n > 0:
		s.failHere("after object key:value pair")
		return false
	}
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		s.failHere("looking for beginning of object key string")
		return false
	}
	raw, plain := s.scanString()
	if s.err != nil {
		return false
	}
	if plain {
		it.key = raw
	} else {
		s.key = unquote(s.key[:0], raw)
		it.key = s.key
	}
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != ':' {
		s.failHere("after object key")
		return false
	}
	s.pos++
	it.n++
	return true
}

// Key returns the current member's decoded key. The view is valid until
// the next call to Next.
func (it *ObjectIter) Key() []byte { return it.key }

// Is reports whether the current key selects the struct field name under
// encoding/json's matching rule (see match).
func (it *ObjectIter) Is(name string) bool { return match(it.key, name) }

// ArrayIter walks the elements of one array; after each true from Next
// the element must be consumed.
type ArrayIter struct {
	s *Scanner
	n int
}

// Array consumes the '[' of the array at the cursor. The caller must have
// checked Peek() == Array.
func (s *Scanner) Array() ArrayIter {
	s.pos++
	s.depth++
	if s.depth > maxDepth {
		s.fail("exceeded max depth")
	}
	return ArrayIter{s: s}
}

// Next reports whether another element follows, consuming the separating
// comma, or false at the closing ']' or on a syntax error.
func (it *ArrayIter) Next() bool {
	s := it.s
	if s.err != nil {
		return false
	}
	s.skipSpace()
	if s.pos >= len(s.data) {
		s.fail("unexpected end of JSON input")
		return false
	}
	switch c := s.data[s.pos]; {
	case c == ']':
		s.pos++
		s.depth--
		return false
	case it.n > 0 && c == ',':
		s.pos++
	case it.n > 0:
		s.failHere("after array element")
		return false
	}
	it.n++
	return true
}

// match reports whether a decoded object key selects the struct field
// with the given JSON name, by encoding/json's rule: an exact match, or
// equality after Unicode simple case folding (so "PROCS" and "procſ",
// with U+017F LATIN SMALL LETTER LONG S, both select "procs"). name must
// be ASCII.
func match(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	i := 0
	for j := 0; j < len(key); i++ {
		if i >= len(name) {
			return false
		}
		var r rune
		if c := key[j]; c < utf8.RuneSelf {
			r = rune(c)
			j++
		} else {
			var n int
			r, n = utf8.DecodeRune(key[j:])
			j += n
		}
		if foldRune(r) != foldRune(rune(name[i])) {
			return false
		}
	}
	return i == len(name)
}

// foldRune returns the smallest rune in r's simple case-folding orbit,
// the canonical form encoding/json compares field names in.
func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
