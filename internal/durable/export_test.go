package durable

// Compact forces a compaction now: the live set becomes the snapshot and
// the WAL restarts, whatever the WAL's length.
func (s *Store[R]) Compact() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	b, err := s.snapshot()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.log.compact(b)
}
