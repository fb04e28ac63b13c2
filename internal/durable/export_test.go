package durable

import "hdlts/internal/wire"

// Compact forces a compaction now: the live set becomes the snapshot and
// the WAL restarts, whatever the WAL's length.
func (s *Store[R]) Compact() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	w := wire.GetWriter(false)
	defer w.Free()
	s.mu.Lock()
	err := s.snapshot(w)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.log.compact(w.Bytes())
}

// LogFile is what the store needs of its open WAL file.
type LogFile = logFile

// WrapWAL puts wrap(f) between the store and its open WAL file f, so a
// test can make writes, fsyncs or truncates fail.
func (s *Store[R]) WrapWAL(wrap func(LogFile) LogFile) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.log.f = wrap(s.log.f)
}
