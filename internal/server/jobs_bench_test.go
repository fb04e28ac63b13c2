package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hdlts/internal/gen"
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
