package pkg

import (
	"io"
	"sync"
)

// walFile is a file behind an interface: Write plus Sync marks it as one.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// closer has Close but neither Sync nor Truncate: not file-like.
type closer interface {
	Close() error
}

// memFile has a file's methods on a concrete in-memory type: clean.
type memFile struct{ b []byte }

func (m *memFile) Write(p []byte) (int, error) { m.b = append(m.b, p...); return len(p), nil }
func (m *memFile) Sync() error                 { return nil }

type wal struct {
	mu  sync.Mutex
	f   walFile
	c   closer
	mem memFile
}

// syncUnderLock fsyncs through the interface inside the critical section.
func (w *wal) syncUnderLock() {
	w.mu.Lock()
	w.f.Sync() // want `blocking operation \(walFile.Sync \(a file-like interface\)\) while "w.mu" is locked`
	w.mu.Unlock()
}

// closeUnderDeferredUnlock closes the file while the lock is held.
func (w *wal) closeUnderDeferredUnlock() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close() // want `blocking operation \(walFile.Close \(a file-like interface\)\) while "w.mu" is locked`
}

// truncateUnderLock cuts an unnamed file-like interface under the lock.
func (w *wal) truncateUnderLock(f interface {
	Write([]byte) (int, error)
	Truncate(int64) error
}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	f.Truncate(0) // want `blocking operation \(interface.Truncate \(a file-like interface\)\) while "w.mu" is locked`
}

// syncAfterUnlock moves the fsync out: clean.
func (w *wal) syncAfterUnlock() {
	w.mu.Lock()
	f := w.f
	w.mu.Unlock()
	f.Sync()
}

// closeNonFile closes an interface that is not file-like: clean.
func (w *wal) closeNonFile() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.c.Close()
}

// syncInMemory syncs a concrete in-memory type: clean.
func (w *wal) syncInMemory() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mem.Sync()
}
