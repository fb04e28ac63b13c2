package wire

import (
	"bytes"
	"io"
	"sync"
)

var readPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadAll reads r to EOF into a pooled buffer. The caller decodes the
// bytes and then calls release; nothing decoded may alias them, which the
// Scanner guarantees for everything but its Key, Str and Raw views. Readers
// that report their remaining length (bytes.Reader, strings.Reader) are
// read without regrowing the buffer.
func ReadAll(r io.Reader) (data []byte, release func(), err error) {
	buf := readPool.Get().(*bytes.Buffer)
	buf.Reset()
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	release = func() {
		if buf.Cap() <= maxPooled {
			readPool.Put(buf)
		}
	}
	if _, err := buf.ReadFrom(r); err != nil {
		release()
		return nil, func() {}, err
	}
	return buf.Bytes(), release, nil
}
