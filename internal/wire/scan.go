// Package wire is the project's JSON codec for the problem and schedule
// wire formats. It reads and writes bytes directly — no reflection, no
// intermediate trees — while accepting and producing exactly what the
// standard library's encoding/json does for the same Go structures:
//
//   - Scanner walks one in-memory document in a single pass. Readers built
//     on it (dag, sched, server) decode straight into their final
//     structures with encoding/json's semantics: keys match
//     case-insensitively, unknown keys can be skipped, the last of
//     a repeated key wins, and null leaves scalars untouched.
//   - Writer appends compact or indented JSON with encoding/json's number
//     format and string escaping, so its bytes match json.Marshal and an
//     Encoder with SetIndent("", "  ") at every depth; Embed copies a
//     pre-encoded value in as encoding/json embeds a json.RawMessage.
package wire

import (
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
// returns never alias data except the []byte views of Key and Str.
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
// encoding/json's: the offending byte plus where it was found.
func (s *Scanner) failHere(context string) {
	if s.pos >= len(s.data) {
		s.fail("unexpected end of JSON input")
		return
	}
	s.fail("invalid character " + quoteChar(s.data[s.pos]) + " " + context)
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

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
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

// float converts the number at the cursor with strconv.ParseFloat, the
// conversion encoding/json uses; a number out of float64 range is a
// TypeError.
func (s *Scanner) float() (float64, error) {
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

// int converts the number at the cursor with strconv.ParseInt, so
// fractions, exponents and out-of-range values are TypeErrors, as in
// encoding/json.
func (s *Scanner) int() (int, error) {
	off := s.pos
	lit := s.number()
	if s.err != nil {
		return 0, s.err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return 0, &TypeError{Value: "number " + string(lit), Want: "int", Offset: off}
	}
	return int(n), nil
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
	if s.data[s.pos] == '-' {
		s.pos++
	}
	if s.pos >= len(s.data) {
		s.fail("unexpected end of JSON input")
		return nil
	}
	switch c := s.data[s.pos]; {
	case c == '0':
		s.pos++
	case c >= '1' && c <= '9':
		s.digits()
	default:
		s.failHere("in numeric literal")
		return nil
	}
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if !s.digits() {
			s.failHere("after decimal point in numeric literal")
			return nil
		}
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if !s.digits() {
			s.failHere("in exponent of numeric literal")
			return nil
		}
	}
	return s.data[start:s.pos]
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (s *Scanner) digits() bool {
	i := s.pos
	for i < len(s.data) && s.data[i] >= '0' && s.data[i] <= '9' {
		i++
	}
	ok := i > s.pos
	s.pos = i
	return ok
}

// scanString consumes one string literal and returns its raw contents.
// plain reports that the contents need no unquoting: no escapes and
// valid UTF-8.
func (s *Scanner) scanString() (raw []byte, plain bool) {
	s.pos++ // opening quote
	start := s.pos
	plain = true
	ascii := true
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			raw = s.data[start:s.pos]
			s.pos++
			if plain && !ascii && !utf8.Valid(raw) {
				plain = false
			}
			return raw, plain
		case c == '\\':
			plain = false
			s.pos++
			if s.pos >= len(s.data) {
				s.fail("unexpected end of JSON input")
				return nil, false
			}
			switch s.data[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for i := 0; i < 4; i++ {
					if s.pos >= len(s.data) {
						s.fail("unexpected end of JSON input")
						return nil, false
					}
					if !isHex(s.data[s.pos]) {
						s.failHere("in \\u hexadecimal character escape")
						return nil, false
					}
					s.pos++
				}
			default:
				s.failHere("in string escape code")
				return nil, false
			}
		case c < 0x20:
			s.failHere("in string literal")
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			s.pos++
		}
	}
	s.fail("unexpected end of JSON input")
	return nil, false
}

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
// walks nested containers iteratively, so deep documents cannot exhaust
// the stack; nesting beyond encoding/json's limit is a syntax error.
func (s *Scanner) Skip() {
	base := len(s.stack)
	for s.err == nil {
		switch s.Peek() {
		case Invalid:
			s.failHere("looking for beginning of value")
			return
		case Null:
			s.literal("null")
		case Bool:
			s.literal(boolWord(s.data[s.pos] == 't'))
		case Number:
			s.number()
		case String:
			s.scanString()
		case Object, Array:
			open := s.data[s.pos]
			if !s.push(open) {
				return
			}
			s.skipSpace()
			if s.pos < len(s.data) && s.data[s.pos] == open+2 { // '{'+2 == '}', '['+2 == ']'
				s.pos++
				s.pop()
			} else if open == '[' || s.memberKey() {
				continue // a member value follows
			} else {
				return
			}
		}
		// A value ended: consume separators and closing brackets until
		// another value is due or the outermost skipped value is done.
		for {
			if s.err != nil || len(s.stack) == base {
				return
			}
			s.skipSpace()
			if s.pos >= len(s.data) {
				s.fail("unexpected end of JSON input")
				return
			}
			top := s.stack[len(s.stack)-1]
			c := s.data[s.pos]
			if c == top+2 {
				s.pos++
				s.pop()
				continue
			}
			if c != ',' {
				if top == '{' {
					s.failHere("after object key:value pair")
				} else {
					s.failHere("after array element")
				}
				return
			}
			s.pos++
			if top == '{' && !s.memberKey() {
				return
			}
			break
		}
	}
}

func (s *Scanner) push(open byte) bool {
	s.pos++
	s.depth++
	s.stack = append(s.stack, open)
	if s.depth > maxDepth {
		s.fail("exceeded max depth")
		return false
	}
	return true
}

func (s *Scanner) pop() {
	s.depth--
	s.stack = s.stack[:len(s.stack)-1]
}

// memberKey consumes `"key":` inside an object Skip is walking.
func (s *Scanner) memberKey() bool {
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		s.failHere("looking for beginning of object key string")
		return false
	}
	s.scanString()
	if s.err != nil {
		return false
	}
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != ':' {
		s.failHere("after object key")
		return false
	}
	s.pos++
	return true
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
