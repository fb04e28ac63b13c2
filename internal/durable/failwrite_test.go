package durable_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"hdlts/internal/durable"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
)

// failingWAL fails the next batch written through it: failWrite writes
// the first half of it and fails, failSync writes it whole and fails the
// fsync, and failCut fails every truncate as well.
type failingWAL struct {
	durable.LogFile
	failWrite, failSync, failCut bool
}

func (f *failingWAL) Write(b []byte) (int, error) {
	if f.failWrite {
		f.failWrite = false
		n, _ := f.LogFile.Write(b[:len(b)/2])
		return n, errors.New("no space left on device")
	}
	return f.LogFile.Write(b)
}

func (f *failingWAL) Sync() error {
	if f.failSync {
		f.failSync = false
		return errors.New("input/output error")
	}
	return f.LogFile.Sync()
}

func (f *failingWAL) Truncate(size int64) error {
	if f.failCut {
		return errors.New("input/output error")
	}
	return f.LogFile.Truncate(size)
}

// TestFailedFlushLeavesNoTear: a batch whose write or fsync fails is cut
// back off the WAL, so later flushes succeed and a reopen holds every
// record whose put line was written. When the cut fails too, nothing more
// is appended and each refused flush is counted: the WAL as it stands
// opens, its torn tail cut, with the records written before the tear. A
// compaction then restarts the WAL, and flushes succeed again.
func TestFailedFlushLeavesNoTear(t *testing.T) {
	for _, c := range []struct {
		name string
		wal  failingWAL
		want []string
	}{
		{"write fails", failingWAL{failWrite: true}, []string{"j1", "j3", "j4"}},
		{"fsync fails", failingWAL{failSync: true}, []string{"j1", "j3", "j4"}},
		{"cut fails", failingWAL{failWrite: true, failCut: true}, []string{"j1", "j2", "j3", "j4", "j5"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var mu sync.Mutex
			errs := new(obs.Counter)
			s, _, err := durable.Open[*jobs.Job](durable.Config{Dir: dir, Key: durable.JobKey, Errors: errs}, &mu)
			if err != nil {
				t.Fatal(err)
			}
			put := func(id string, seq uint64) {
				mu.Lock()
				s.Put(jobKind.make(id, seq, durable.Queued, ""))
				mu.Unlock()
				s.Flush()
			}
			put("j1", 1)
			fw := c.wal
			s.WrapWAL(func(f durable.LogFile) durable.LogFile {
				fw.LogFile = f
				return &fw
			})
			put("j2", 2)
			if errs.Value() != 1 {
				t.Fatalf("failed flush counted %d times, want 1", errs.Value())
			}
			walPath := filepath.Join(dir, "wal.jsonl")
			before, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			put("j3", 3)
			put("j4", 4)
			after, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if c.wal.failCut {
				if errs.Value() != 3 || after.Size() != before.Size() {
					t.Errorf("after the tear: %d failures counted (want 3), WAL %d → %d bytes (want no growth)",
						errs.Value(), before.Size(), after.Size())
				}
				if got := reopenCopy(t, walPath); !slices.Equal(got, []string{"j1"}) {
					t.Errorf("the torn WAL opens holding %v, want [j1]", got)
				}
				fw.failCut = false
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				put("j5", 5)
				if errs.Value() != 3 {
					t.Errorf("flush after the compaction failed: %d failures counted, want 3", errs.Value())
				}
			} else if errs.Value() != 1 || after.Size() <= before.Size() {
				t.Errorf("later flushes: %d failures counted (want 1), WAL %d → %d bytes (want growth)",
					errs.Value(), before.Size(), after.Size())
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			if got := reopen(t, dir); !slices.Equal(got, c.want) {
				t.Errorf("reopen holds %v, want %v", got, c.want)
			}
		})
	}
}

// reopen opens the job store in dir and returns the IDs it recovers.
func reopen(t *testing.T, dir string) []string {
	t.Helper()
	var mu sync.Mutex
	s, recovered, err := durable.Open[*jobs.Job](durable.Config{Dir: dir, Key: durable.JobKey}, &mu)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return ids(recovered)
}

// reopenCopy opens a store holding a copy of the WAL at walPath alone.
func reopenCopy(t *testing.T, walPath string) []string {
	t.Helper()
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return reopen(t, dir)
}
