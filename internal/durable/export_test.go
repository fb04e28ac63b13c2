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
