package wire

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Writer appends one JSON document to a byte buffer, either compact (the
// bytes json.Marshal produces) or indented (the bytes an Encoder with
// SetIndent("", "  ") produces, minus its trailing newline). Callers emit
// values in document order; the Writer places commas, newlines and
// indentation itself. The first unsupported value (NaN or ±Inf) is kept
// in Err and the rest of the document is still written.
type Writer struct {
	buf      []byte
	indent   bool
	depth    int
	nonEmpty []bool // per open container: has a member been written
	afterKey bool
	err      error
}

var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// maxPooled caps the buffer a released Writer keeps: a one-off huge
// document should not pin its buffer in the pool.
const maxPooled = 16 << 20

// GetWriter returns an empty pooled Writer. Release it with Free once its
// bytes have been copied or written out; nothing may keep Bytes after.
func GetWriter(indent bool) *Writer {
	w := writerPool.Get().(*Writer)
	w.reset(indent)
	return w
}

// Free returns the Writer to the pool.
func (w *Writer) Free() {
	if cap(w.buf) > maxPooled {
		return
	}
	writerPool.Put(w)
}

// reset empties the Writer for a new document, keeping its buffer.
func (w *Writer) reset(indent bool) {
	w.buf = w.buf[:0]
	w.indent = indent
	w.depth = 0
	w.nonEmpty = w.nonEmpty[:0]
	w.afterKey = false
	w.err = nil
}

// Bytes returns the document written so far. It aliases the Writer's
// buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// A Writer may append several documents one after another, such as the
// lines of a log; Truncate and Swap work between them.

// Truncate drops what was written after the first n bytes, and the error
// the Writer kept: it takes back the documents written since Bytes was
// n bytes long.
func (w *Writer) Truncate(n int) {
	w.buf = w.buf[:n]
	w.err = nil
}

// Swap returns the bytes written so far and goes on appending into buf,
// emptied; the returned slice is the caller's.
func (w *Writer) Swap(buf []byte) []byte {
	old := w.buf
	w.buf = buf[:0]
	return old
}

// Err returns the first unsupported value the Writer met, if any.
func (w *Writer) Err() error { return w.err }

// Newline ends an indented document the way Encoder.Encode does.
func (w *Writer) Newline() { w.buf = append(w.buf, '\n') }

// newlineSpaces is a line break and the indentation of up to 32 levels.
const newlineSpaces = "\n                                                                "

// newline breaks the line and indents it for the current depth.
func (w *Writer) newline() {
	if w.indent {
		w.buf = appendNewline(w.buf, w.depth)
	}
}

// appendNewline appends a line break and the indentation of depth.
func appendNewline(buf []byte, depth int) []byte {
	n := 2 * depth
	if n < len(newlineSpaces) {
		return append(buf, newlineSpaces[:1+n]...)
	}
	buf = append(buf, newlineSpaces...)
	for n -= len(newlineSpaces) - 1; n > 0; {
		k := min(n, len(newlineSpaces)-1)
		buf = append(buf, newlineSpaces[1:1+k]...)
		n -= k
	}
	return buf
}

// sep writes what precedes a member of the innermost container: a comma
// after the first member, then the line break and indentation.
func (w *Writer) sep() {
	if w.depth == 0 {
		return
	}
	if w.nonEmpty[w.depth-1] {
		w.buf = append(w.buf, ',')
	} else {
		w.nonEmpty[w.depth-1] = true
	}
	w.newline()
}

// value prepares for a value: nothing after a key, a separator inside an
// array.
func (w *Writer) value() {
	if w.afterKey {
		w.afterKey = false
		return
	}
	w.sep()
}

func (w *Writer) open(c byte) {
	w.value()
	w.buf = append(w.buf, c)
	w.depth++
	w.nonEmpty = append(w.nonEmpty, false)
}

func (w *Writer) close(c byte) {
	had := w.nonEmpty[w.depth-1]
	w.nonEmpty = w.nonEmpty[:w.depth-1]
	w.depth--
	if had {
		w.newline()
	}
	w.buf = append(w.buf, c)
}

// BeginObject opens an object.
func (w *Writer) BeginObject() { w.open('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.close('}') }

// BeginArray opens an array.
func (w *Writer) BeginArray() { w.open('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.close(']') }

// Key writes an object member's key; the member's value comes next.
func (w *Writer) Key(k string) {
	w.sep()
	w.buf = AppendString(w.buf, k)
	w.buf = append(w.buf, ':')
	if w.indent {
		w.buf = append(w.buf, ' ')
	}
	w.afterKey = true
}

// String writes a string value.
func (w *Writer) String(v string) {
	w.value()
	w.buf = AppendString(w.buf, v)
}

// Int writes an integer value.
func (w *Writer) Int(v int) { w.Int64(int64(v)) }

// Int64 writes an int64 value.
func (w *Writer) Int64(v int64) {
	w.value()
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

// Uint64 writes a uint64 value.
func (w *Writer) Uint64(v uint64) {
	w.value()
	w.buf = strconv.AppendUint(w.buf, v, 10)
}

// Float writes a float64 value in encoding/json's format.
func (w *Writer) Float(v float64) {
	w.value()
	var err error
	w.buf, err = AppendFloat(w.buf, v)
	if err != nil && w.err == nil {
		w.err = err
	}
}

// Bool writes true or false.
func (w *Writer) Bool(v bool) {
	w.value()
	w.buf = strconv.AppendBool(w.buf, v)
}

// Time writes t as time.Time.MarshalJSON does: RFC 3339 with
// nanoseconds, quoted. A time MarshalJSON refuses (a year outside
// [0,9999], a zone offset of 24 hours or more) is kept in Err, as Float
// keeps a non-finite value.
func (w *Writer) Time(t time.Time) {
	w.value()
	start := len(w.buf) + 1
	b := t.AppendFormat(append(w.buf, '"'), time.RFC3339Nano)
	if !strictRFC3339(b[start:]) {
		if w.err == nil {
			w.err = errors.New("wire: unsupported value: time " + string(b[start:]))
		}
		return
	}
	w.buf = append(b, '"')
}

// strictRFC3339 reports whether s, a time in RFC3339Nano form, is one
// MarshalJSON writes: a four-digit year, and a zone offset, when there is
// one, under 24 hours.
func strictRFC3339(s []byte) bool {
	if s[4] != '-' {
		return false
	}
	if s[len(s)-1] == 'Z' {
		return true
	}
	zone := s[len(s)-len("+07:00"):]
	return (zone[0] == '+' || zone[0] == '-') && (zone[1]-'0')*10+(zone[2]-'0') < 24
}

// Null writes null.
func (w *Writer) Null() {
	w.value()
	w.buf = append(w.buf, "null"...)
}

// Raw writes raw, one JSON value, the way encoding/json embeds a
// json.RawMessage, with no syntax check: raw is this process's own output
// or a value a Scanner checked where it entered. An indented Writer drops
// the space between tokens, escapes '<', '>', '&', U+2028 and U+2029 in
// strings, and lays the value out at the current depth as json.Indent
// does, empty containers on one line; it copies the bytes between the
// ones it acts on in runs. A compact Writer appends raw as it is, so raw
// must already be compact and escaped, as json.Marshal and a compact
// Writer write it. Invalid input writes bytes that are not JSON, and
// never panics.
func (w *Writer) Raw(raw []byte) {
	w.value()
	if !w.indent {
		w.buf = append(w.buf, raw...)
		return
	}
	buf, depth := w.buf, w.depth
	from := 0 // raw[from:i] is still to be copied
	for i := 0; i < len(raw); i++ {
		if !layoutByte[raw[i]] {
			continue
		}
		switch raw[i] {
		case '"':
			for i++; i < len(raw); i++ {
				c := raw[i]
				if !stringByte[c] {
					continue
				}
				if c == '"' {
					break
				}
				switch {
				case c == '\\':
					i++
				case c == 0xE2: // U+2028 and U+2029 are E2 80 A8 and E2 80 A9
					if i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8 {
						buf = append(append(buf, raw[from:i]...), '\\', 'u', '2', '0', '2', hexDigits[raw[i+2]&0xF])
						i += 2
						from = i + 1
					}
				default: // '<', '>', '&'
					buf = append(append(buf, raw[from:i]...), '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
					from = i + 1
				}
			}
		case ' ', '\t', '\n', '\r':
			buf = append(buf, raw[from:i]...)
			from = skipSpace(raw, i)
			i = from - 1
		case '{', '[':
			j := skipSpace(raw, i+1)
			if j < len(raw) && (raw[j] == '}' || raw[j] == ']') {
				// An empty container stays on its line.
				if j > i+1 {
					buf = append(buf, raw[from:i+1]...)
					from = j
				}
				i = j
				continue
			}
			depth++
			buf = appendNewline(append(buf, raw[from:i+1]...), depth)
			from = i + 1
		case '}', ']':
			depth = max(depth-1, 0) // an unmatched closer is invalid input
			buf = appendNewline(append(buf, raw[from:i]...), depth)
			from = i
		case ',':
			buf = appendNewline(append(buf, raw[from:i+1]...), depth)
			from = i + 1
		case ':':
			buf = append(append(buf, raw[from:i+1]...), ' ')
			from = i + 1
		}
	}
	w.buf = append(buf, raw[from:]...)
}

// layoutByte marks the bytes Raw lays out around or drops, and the quote
// that starts a string it scans.
var layoutByte = [256]bool{'"': true, '{': true, '[': true, '}': true, ']': true, ',': true, ':': true,
	' ': true, '\t': true, '\n': true, '\r': true}

// stringByte marks the bytes Raw acts on inside a string: its end, an
// escape whose next byte it skips, the bytes it HTML-escapes, and the
// lead byte of U+2028 and U+2029.
var stringByte = [256]bool{'"': true, '\\': true, '<': true, '>': true, '&': true, 0xE2: true}

// AppendFloat appends f as encoding/json formats a float64: the shortest
// representation that round-trips, in 'f' form unless the exponent is
// below -6 or at least 21, then in 'e' form with a two-digit negative
// exponent shortened ("1e-07" becomes "1e-7"). NaN and ±Inf are errors.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("wire: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a string may carry unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendString appends s as a JSON string with encoding/json's escaping,
// HTML escaping included: the bytes '<', '>' and '&' and the runes U+2028
// and U+2029 become six-byte \u escapes, and invalid UTF-8 becomes the
// escaped replacement character U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
