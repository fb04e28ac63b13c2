//go:build !race

package durable_test

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hdlts/internal/durable"
	"hdlts/internal/jobs"
)

// TestReplayLineOver64MiB: a put line longer than 64 MiB, which a daemon
// with a raised body limit can write, replays like any other, and so do
// the lines after it. (Not under -race: the line, its read buffer and the
// decoded problem take a few hundred MiB there.)
func TestReplayLineOver64MiB(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"op":"put","job":{"id":"big","state":"done","seq":0,"problem":"`)
	chunk := strings.Repeat("a", 1<<20)
	const problemLen = 65 << 20
	for i := 0; i < problemLen>>20; i++ {
		w.WriteString(chunk)
	}
	w.WriteString(`"}}` + "\n" + `{"op":"put","job":{"id":"next","state":"done","seq":1}}` + "\n")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	s, recovered, err := durable.Open[*jobs.Job](durable.Config{Dir: dir, Key: durable.JobKey}, &mu)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if len(recovered) != 2 || recovered[0].ID != "big" || recovered[1].ID != "next" {
		t.Fatalf("recovered %d records, want big and next", len(recovered))
	}
	if n := len(recovered[0].Problem); n != problemLen+2 {
		t.Errorf("big problem is %d bytes, want %d", n, problemLen+2)
	}
}
