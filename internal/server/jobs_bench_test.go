package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"hdlts/internal/gen"
	"hdlts/internal/jobs"
	"hdlts/internal/obs"
)

// benchJobServer starts a server with a memory-only job store and returns
// it with the submit body of a V=100, 4-processor problem (the shape of
// the jobs-v100-mixed workload) and the ID of the job that solved it, so
// that every further submission of the body is a cache hit.
func benchJobServer(b *testing.B) (srv *Server, body []byte, id string) {
	b.Helper()
	srv, err := New(Config{Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Shutdown(context.Background()) })
	pr, err := gen.Random(gen.Params{V: 100, Alpha: 1.5, Density: 3, CCR: 2, Procs: 4, WDAG: 80, Beta: 1.2},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pr.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	if body, err = json.Marshal(JobSubmitRequest{Algorithm: "hdlts", Problem: buf.Bytes()}); err != nil {
		b.Fatal(err)
	}
	var v JobView
	rec := serveBench(srv, http.MethodPost, "/v1/jobs", body)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if v.State == "done" {
			return srv, body, v.ID
		}
		if time.Now().After(deadline) {
			b.Fatalf("job %s still %s", v.ID, v.State)
		}
		time.Sleep(time.Millisecond)
		rec = serveBench(srv, http.MethodGet, "/v1/jobs/"+v.ID, nil)
	}
}

// serveBench drives one request through the handler. Unlike doJSON it
// reads body in place, so B/op counts only what serving allocates.
func serveBench(srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// BenchmarkJobSubmit times one cache-hit POST /v1/jobs in the handler:
// decode, canonicalise, hash, admit from the result cache and reply; no
// solve.
func BenchmarkJobSubmit(b *testing.B) {
	srv, body, _ := benchJobServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveBench(srv, http.MethodPost, "/v1/jobs", body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkJobPoll times one GET /v1/jobs/{id} of a done job, whose reply
// embeds the result.
func BenchmarkJobPoll(b *testing.B) {
	srv, _, id := benchJobServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveBench(srv, http.MethodGet, "/v1/jobs/"+id, nil); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkJobMiss times one never-seen problem through a durable job
// store, as a jobs-v100-mixed miss: POST /v1/jobs of a V=100, 4-processor
// problem whose W entry (0, 0) no earlier iteration sent, then a poll of
// the job table until the job is done. It covers decode, canonicalise and
// hash, admission, the worker's solve and every WAL line with its fsync.
func BenchmarkJobMiss(b *testing.B) {
	srv, err := New(Config{Metrics: obs.NewRegistry(), Jobs: jobs.Config{Dir: b.TempDir()}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Shutdown(context.Background()) })
	pr, err := gen.Random(gen.Params{V: 100, Alpha: 1.5, Density: 3, CCR: 2, Procs: 4, WDAG: 80, Beta: 1.2},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	// The submit body is split around W(0, 0), set to a marker found
	// nowhere else, so each iteration splices in a value of its own.
	const marker = 987654.321
	if err := pr.W.Set(0, 0, marker); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pr.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	text, err := json.Marshal(JobSubmitRequest{Algorithm: "hdlts", Problem: buf.Bytes()})
	if err != nil {
		b.Fatal(err)
	}
	prefix, suffix, ok := bytes.Cut(text, []byte(strconv.FormatFloat(marker, 'f', -1, 64)))
	if !ok {
		b.Fatal("marker not in the submit body")
	}
	body := make([]byte, 0, len(text)+24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = append(append(strconv.AppendInt(append(body[:0], prefix...), int64(i+1), 10), '.', '5'), suffix...)
		rec := serveBench(srv, http.MethodPost, "/v1/jobs", body)
		var v JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusAccepted {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		for {
			j, err := srv.jobs.Get(v.ID)
			if err != nil {
				b.Fatal(err)
			}
			if j.State == jobs.Done {
				break
			}
			if j.State.Terminal() {
				b.Fatalf("job %s is %s: %s", j.ID, j.State, j.Error)
			}
			runtime.Gosched()
		}
	}
}
