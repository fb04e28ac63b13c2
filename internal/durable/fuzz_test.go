package durable_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hdlts/internal/exec"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
)

func refuseRun(context.Context, string, json.RawMessage) (json.RawMessage, error) {
	return nil, errors.New("a recovered terminal job must not run")
}

func refuseStep(context.Context, exec.Step) error {
	return errors.New("a recovered terminal workflow must not run")
}

func quickRun(context.Context, string, json.RawMessage) (json.RawMessage, error) {
	return json.RawMessage(`{}`), nil
}

func quickStep(context.Context, exec.Step) error { return nil }

func closeManager(t testing.TB, m *jobs.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Errorf("jobs Close: %v", err)
	}
}

func closeEngine(t testing.TB, e *exec.Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Errorf("exec Close: %v", err)
	}
}

// Damaged-but-parseable store contents the owners' recovery once panicked on.
const (
	unknownJobState = `{"op":"put","job":{"id":"j-1","state":"paused","seq":0}}` + "\n"
	workflowNoSpec  = `{"op":"put","rec":{"id":"wf-1","state":"running","steps":[{"name":"a","state":"running"}],"seq":0}}` + "\n"
	workflowSkewed  = `{"op":"put","rec":{"id":"wf-2","state":"running","spec":{"procs":1,"steps":[` +
		`{"name":"a","command":"true","costs":[1]},{"name":"b","command":"true","depends":["a"],"costs":[1]}]},` +
		`"steps":[{"name":"a","state":"done"}],"seq":1}}` + "\n"
	workflowResumable = `{"op":"put","rec":{"id":"wf-3","state":"running","spec":{"procs":1,"steps":[` +
		`{"name":"a","command":"true","costs":[1]}]},"steps":[{"name":"a","state":"running","attempts":1}],"seq":2}}` + "\n"
	jobQueued = `{"op":"put","job":{"id":"j-2","algorithm":"HDLTS","hash":"h","state":"running","attempts":1,"max_attempts":2,"seq":3}}` + "\n"
)

// TestOwnersRecoverDamagedStores: a damaged job store fails jobs.Open with
// an error, and a workflow record that decodes but no longer compiles is
// failed on recovery while its neighbours resume.
func TestOwnersRecoverDamagedStores(t *testing.T) {
	for _, c := range []struct{ name, snapshot, wal string }{
		{"null snapshot record", `[null]`, ``},
		{"unknown job state", ``, unknownJobState},
	} {
		_, err := jobs.Open(jobs.Config{Dir: writeStore(t, c.snapshot, c.wal), Metrics: obs.NewRegistry(), Run: quickRun})
		if err == nil {
			t.Errorf("%s: jobs.Open succeeded", c.name)
		}
	}

	e, err := exec.Open(exec.Config{Dir: writeStore(t, "", workflowNoSpec+workflowSkewed+workflowResumable),
		Metrics: obs.NewRegistry(), Runner: quickStep})
	if err != nil {
		t.Fatalf("exec.Open: %v", err)
	}
	defer closeEngine(t, e)
	for _, id := range []string{"wf-1", "wf-2"} {
		r, err := e.Get(id)
		if err != nil || r.State != exec.Failed || !strings.HasPrefix(r.Error, "recovery: ") {
			t.Errorf("damaged %s recovered as %+v, %v; want failed by recovery", id, r, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if r, err := e.Wait(ctx, "wf-3"); err != nil || r.State != exec.Done {
		t.Errorf("intact wf-3 after recovery = %+v, %v; want done", r, err)
	}
}

// FuzzLogReplay feeds arbitrary (snapshot, WAL) bytes to both owners'
// recovery: Open may refuse them with an error, but must never panic, and
// whatever it recovers must be servable and closable.
func FuzzLogReplay(f *testing.F) {
	for _, name := range []string{"jobs", "workflows"} {
		snap, _ := os.ReadFile(filepath.Join("testdata", "parent", name, "snapshot.json"))
		wal, _ := os.ReadFile(filepath.Join("testdata", "parent", name, "wal.jsonl"))
		f.Add(snap, wal)
	}
	f.Add([]byte(`[null]`), []byte(nil))
	f.Add([]byte(nil), []byte(unknownJobState))
	f.Add([]byte(nil), []byte(workflowNoSpec+workflowSkewed))
	f.Add([]byte(nil), []byte(workflowResumable+jobQueued))
	f.Add([]byte(`[{"id":"x","state":"queued"}]`), []byte(`{"op":"del","id":"x"}`+"\n"+`{"op":"put","job":{"id":"to`))
	f.Fuzz(func(t *testing.T, snapshot, wal []byte) {
		if m, err := jobs.Open(jobs.Config{Dir: writeStore(t, string(snapshot), string(wal)),
			Metrics: obs.NewRegistry(), Run: quickRun}); err == nil {
			m.List("", 0, 0)
			closeManager(t, m)
		}
		if e, err := exec.Open(exec.Config{Dir: writeStore(t, string(snapshot), string(wal)),
			Metrics: obs.NewRegistry(), Runner: quickStep}); err == nil {
			e.List()
			closeEngine(t, e)
		}
	})
}
