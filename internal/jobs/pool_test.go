package jobs

import (
	"bytes"
	"log"
	"os"
	"strings"
	"testing"
	"time"
)

// TestPoolSurvivesPanics: a func that panics is logged and abandoned; the
// worker that ran it goes on to run the next func, and Close still returns.
func TestPoolSurvivesPanics(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	p := NewPool(1, 4, nil)
	ran := make(chan struct{})
	if !p.TrySubmit(func() { panic("claim bug") }) || !p.TrySubmit(func() { close(ran) }) {
		t.Fatal("pool refused work")
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("the func after a panic never ran")
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after a panic")
	}
	if !strings.Contains(logged.String(), "claim bug") {
		t.Errorf("panic not logged: %q", logged.String())
	}
}
