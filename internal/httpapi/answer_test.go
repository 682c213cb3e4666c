package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// coldPlanBytesBudget bounds what a warm cold /v1/plan allocates, harness
// request and recorder included. paper-single (2,560 tasks) and fleet-bulk
// (25,600) share it, so one array of a byte per task at fleet scale is over.
const coldPlanBytesBudget = 32 << 10

// TestColdPlanAllocatesNoPerTaskBytes: with the plan cache off, a warm cold
// /v1/plan of each bench body allocates at most coldPlanBytesBudget bytes,
// whatever its task count — the decoded problem borrows the lexer's arrays,
// the index and the matcher their pools' and the planner's answer its own
// pooled storage, released once the streamed 200 is written. It runs at
// GOMAXPROCS(1) with the GC off, so each Release is the buffer the next plan
// gets back, and skips under -race, where sync.Pool drops Puts at random.
func TestColdPlanAllocatesNoPerTaskBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation clauses run without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := NewServer(ServerOptions{PlanCacheEntries: -1})
	for _, w := range benchShapes {
		t.Run(w.name, func(t *testing.T) {
			body := benchBody(256, w.tasks, w.sizes, false, 1)
			serve := func() {
				rw := &discardResponse{header: http.Header{}}
				s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
				if rw.status != http.StatusOK {
					t.Fatalf("status %d", rw.status)
				}
			}
			serve() // grows the pooled lexer, index, matcher and answer to the body
			serve()
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				serve()
			}
			runtime.ReadMemStats(&after)
			got := (after.TotalAlloc - before.TotalAlloc) / runs
			objects := (after.Mallocs - before.Mallocs) / runs
			t.Logf("%s (%d tasks): %d B in %d objects, budget %d B", w.name, w.tasks, got, objects, coldPlanBytesBudget)
			if got > coldPlanBytesBudget {
				t.Fatalf("a warm cold %d-task plan allocated %d B, budget %d B", w.tasks, got, coldPlanBytesBudget)
			}
		})
	}
}

// missTier is a shared tier that holds nothing, so every plan is computed
// and rendered with the tier on and no plan-cache entry to keep it.
type missTier struct{}

func (missTier) Get(context.Context, string) ([]byte, bool, error)        { return nil, false, nil }
func (missTier) Set(context.Context, string, []byte, time.Duration) error { return nil }

// yieldingRecorder yields the processor as a response starts and at each
// write, so another request's plan runs (and takes whatever its pool holds)
// in the middle of this one's response.
type yieldingRecorder struct{ *httptest.ResponseRecorder }

func (w yieldingRecorder) WriteHeader(code int) {
	runtime.Gosched()
	w.ResponseRecorder.WriteHeader(code)
}

func (w yieldingRecorder) Write(p []byte) (int, error) {
	runtime.Gosched()
	return w.ResponseRecorder.Write(p)
}

// TestAnswerReleasedAfterItsResponse: with no plan-cache entry to keep a
// plan (the cache off, or only the shared tier on), the planner's answer
// borrows pooled storage until its response is written; with the cache on,
// the entry keeps storage of its own. Concurrent /v1/plan and /v1/simulate
// requests on distinct bodies, of several sizes so each answer's arrays are
// regrown and reused, must each get the 200 a fresh server gives the same
// body alone: an answer released before its body is written, or a cached
// plan left on pooled storage, shows here as another request's owners in
// the bytes.
func TestAnswerReleasedAfterItsResponse(t *testing.T) {
	type call struct {
		path string
		body []byte
	}
	var calls []call
	for i := range 6 {
		nodes := 16 << (i % 3)
		calls = append(calls,
			call{"/v1/plan", benchBody(nodes, nodes*(4+i), []float64{64}, false, int64(i+1))},
			call{"/v1/plan", benchBody(nodes, nodes*3, []float64{30, 20, 10}, false, int64(i+11))},
			call{"/v1/simulate", benchBody(nodes, nodes*(2+i%2), []float64{64}, true, int64(i+21))})
	}
	answer := func(s *Server, c call) ([]byte, error) {
		w := yieldingRecorder{httptest.NewRecorder()}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body)))
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", c.path, w.Code, w.Body.Bytes())
		}
		return plannerMillis.ReplaceAll(w.Body.Bytes(), []byte(`"planner_ms":0`)), nil
	}
	want := make([][]byte, len(calls))
	for i, c := range calls {
		var err error
		if want[i], err = answer(NewServer(ServerOptions{PlanCacheEntries: -1}), c); err != nil {
			t.Fatal(err)
		}
	}
	for _, cfg := range []struct {
		name string
		opts ServerOptions
	}{
		{"cache-off", ServerOptions{PlanCacheEntries: -1}},
		{"tier-only", ServerOptions{PlanCacheEntries: -1, RemoteTier: missTier{}}},
		{"cache-on", ServerOptions{}}, // every body repeats: later rounds read cached plans
	} {
		t.Run(cfg.name, func(t *testing.T) {
			s := NewServer(cfg.opts)
			const workers, rounds = 4, 3
			var wg sync.WaitGroup
			errs := make(chan error, workers*rounds*len(calls))
			for g := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := range rounds {
						for k := range calls {
							i := (k + 7*g + r) % len(calls) // each worker starts at its own body
							got, err := answer(s, calls[i])
							if err == nil && !bytes.Equal(got, want[i]) {
								err = fmt.Errorf("%s body %d answered concurrently differs from its answer alone:\n got %.300s\nwant %.300s", calls[i].path, i, got, want[i])
							}
							if err != nil {
								errs <- err
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
