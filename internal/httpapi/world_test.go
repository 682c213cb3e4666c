package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"opass/internal/engine"
	"opass/internal/telemetry"
)

// withFaults returns body with the fault fields prepended.
func withFaults(body []byte, faults string) []byte {
	return append([]byte("{"+faults+","), body[1:]...)
}

// dataLossBody is a simulation that aborts mid-run: every chunk has one
// replica, node 2 crashes for good at 1 s with neither repair nor replan,
// and its chunks are still to be read — the engine answers 500.
func dataLossBody() []byte {
	req := PlanRequest{Nodes: 8, Seed: 3, Failures: []engine.NodeFailure{{Node: 2, At: 1}}}
	for i := range 96 {
		req.Tasks = append(req.Tasks, TaskSpec{Inputs: []InputSpec{{SizeMB: 64, Replicas: []int{i % 8}}}})
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// worldBodies is a /v1/simulate sequence that rebuilds one pooled world
// every way a request can: the node count moves 128 -> 64 -> 256 and back,
// the task count and inputs per task change, failures come permanent and
// transient, degradations open-ended and windowed, replan and repair on and
// off, and one run aborts on data loss.
var worldBodies = []struct {
	name   string
	body   []byte
	status int
}{
	{"simulate-faults", benchBody(128, 1280, []float64{64}, true, 1), http.StatusOK},
	{"transient-outage-window", withFaults(benchBody(64, 320, []float64{64}, false, 2),
		`"failures":[{"node":5,"at_seconds":2,"recover_at_seconds":6}],"degradations":[{"node":9,"at_seconds":1,"until_seconds":5,"disk_factor":0.25,"nic_factor":0.5}],"replan":true`), http.StatusOK},
	{"no-faults-256", benchBody(256, 768, []float64{64}, false, 3), http.StatusOK},
	{"data-loss", dataLossBody(), http.StatusInternalServerError},
	{"repair-without-replan", withFaults(benchBody(32, 96, []float64{30, 20, 10}, false, 4),
		`"failures":[{"node":3,"at_seconds":1}],"repair":true,"repair_delay_seconds":1`), http.StatusOK},
	{"degraded-replan", withFaults(benchBody(128, 640, []float64{64}, false, 5),
		`"degradations":[{"node":40,"at_seconds":0.5,"disk_factor":0.5,"nic_factor":1}],"replan":true`), http.StatusOK},
	{"simulate-faults-5120", benchBody(128, 5120, []float64{64}, true, 6), http.StatusOK},
}

// deadlineCtx is a request context whose deadline passes when expire is
// closed.
type deadlineCtx struct {
	context.Context
	expire chan struct{}
}

func (c deadlineCtx) Done() <-chan struct{} { return c.expire }

func (c deadlineCtx) Err() error {
	select {
	case <-c.expire:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestSimulateReusedWorldMatchesFresh: a simulation borrows the cluster and
// mirror file system its arena carries and rebuilds them in place, so
// whatever the last request left there — another node count, crashed nodes,
// repaired chunks, a degraded device, an advanced clock, a run aborted on
// data loss or cut by its deadline inside the engine — must not reach the
// next answer. One server answers worldBodies in turn, with a deadline body
// between them, then from four goroutines at once; every answer must be the
// bytes the same body gets alone in a world of its own (planner_ms masked).
func TestSimulateReusedWorldMatchesFresh(t *testing.T) {
	answer := func(s *Server, ctx context.Context, body []byte) (int, []byte) {
		w := yieldingRecorder{httptest.NewRecorder()}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)).WithContext(ctx))
		return w.Code, plannerMillis.ReplaceAll(w.Body.Bytes(), []byte(`"planner_ms":0`))
	}
	// The reference answers come through the reference decoder, whose
	// requests carry no arena: each simulates in a world of its own. Each
	// summary must count one read per input.
	want := make([][]byte, len(worldBodies))
	for i, b := range worldBodies {
		fresh := NewServer(ServerOptions{PlanCacheEntries: -1})
		fresh.decode = decodeProblemReference
		var status int
		if status, want[i] = answer(fresh, context.Background(), b.body); status != b.status {
			t.Fatalf("%s in a fresh world: status %d, want %d: %.200s", b.name, status, b.status, want[i])
		}
		var req PlanRequest
		var resp SimulateResponse
		if err := json.Unmarshal(b.body, &req); err != nil {
			t.Fatal(err)
		}
		if status == http.StatusOK {
			if err := json.Unmarshal(want[i], &resp); err != nil {
				t.Fatal(err)
			}
			reads := 0
			for _, task := range req.Tasks {
				reads += len(task.Inputs)
			}
			if resp.Summary.IO.Count != reads {
				t.Fatalf("%s in a fresh world: %d I/O times for %d inputs", b.name, resp.Summary.IO.Count, reads)
			}
		}
	}
	// check answers body i on s.
	check := func(s *Server, i int) error {
		b := worldBodies[i]
		status, got := answer(s, context.Background(), b.body)
		if status != b.status || !bytes.Equal(got, want[i]) {
			return fmt.Errorf("%s in a reused world: status %d, differs from a fresh world's %d:\n got %.300s\nwant %.300s", b.name, status, b.status, got, want[i])
		}
		return nil
	}
	// The deadline body plans in a blink (rank order) and simulates for over
	// a hundred milliseconds (64 processes a disk); its deadline passes a
	// millisecond after its plan is recorded, so the engine is cut short
	// mid-run.
	deadline := PlanRequest{Nodes: 16, Strategy: "rank", Failures: []engine.NodeFailure{{Node: 3, At: 2}}}
	for i := range 1024 {
		deadline.ProcNodes = append(deadline.ProcNodes, i%16)
	}
	for i := range 8192 {
		deadline.Tasks = append(deadline.Tasks, TaskSpec{Inputs: []InputSpec{{SizeMB: 64, Replicas: []int{i % 16, (i + 5) % 16, (i + 11) % 16}}}})
	}
	expireMidEngine := func(t *testing.T, s *Server, plans *telemetry.Counter, reg *telemetry.Registry) {
		deadline.Seed++ // a body of its own, so the plan cache misses
		deadlineBody, err := json.Marshal(deadline)
		if err != nil {
			t.Fatal(err)
		}
		engineRuns := reg.Histogram(MetricSimEngineSeconds, nil)
		before, ran := plans.Value(), engineRuns.Snapshot().Count
		ctx := deadlineCtx{context.Background(), make(chan struct{})}
		answered, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for plans.Value() == before {
				select {
				case <-answered:
					return
				default:
					runtime.Gosched()
				}
			}
			time.Sleep(time.Millisecond) // into the engine, not a wait for it
			close(ctx.expire)
		}()
		status, body := answer(s, ctx, deadlineBody)
		close(answered)
		<-stopped
		if status != http.StatusServiceUnavailable || engineRuns.Snapshot().Count != ran+1 {
			t.Fatalf("deadline body: status %d (%s), %d engine runs; want 503 from inside the engine",
				status, body, engineRuns.Snapshot().Count-ran)
		}
	}
	for _, cfg := range []struct {
		name string
		opts ServerOptions
		// planned counts what the handler has planned, the moment before
		// its simulation starts.
		planned func(reg *telemetry.Registry) *telemetry.Counter
	}{
		{"cache-off", ServerOptions{PlanCacheEntries: -1}, func(reg *telemetry.Registry) *telemetry.Counter {
			return reg.Counter(MetricPlans, telemetry.L("strategy", "rank-static"))
		}},
		// A repeated body reads its plan from the cache, its world still
		// rebuilt. A miss is counted once the flight has rendered the plan.
		{"cache-on", ServerOptions{}, func(reg *telemetry.Registry) *telemetry.Counter {
			return reg.Counter(MetricPlanCacheMisses)
		}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			cfg.opts.Registry = reg
			s := NewServer(cfg.opts)
			for round := range 2 {
				for i := range worldBodies {
					if err := check(s, i); err != nil {
						t.Fatal(err)
					}
					if i%3 == round {
						expireMidEngine(t, s, cfg.planned(reg), reg)
					}
				}
			}
			const workers, rounds = 4, 2
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := range rounds {
						for k := range worldBodies {
							i := (k + 3*g + r) % len(worldBodies) // each worker starts at its own body
							if err := check(s, i); err != nil {
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

// simulateBytesBudget bounds a warm /v1/simulate of the 1,280-task
// simulate-faults body, harness request and recorder included, and
// simulatePerChunkBudget what four times the tasks may add to it.
const (
	simulateBytesBudget    = 240 << 10
	simulatePerChunkBudget = 256 << 10
)

// TestSimulateAllocatesNoPerChunkBytes: with the plan cache off, a warm
// /v1/simulate of the simulate-faults body rebuilds its world — cluster,
// mirror file system — in the arena's storage and runs the engine in a
// released run buffer, so 5,120 tasks allocate at most
// simulatePerChunkBudget more than 1,280 do (the replans and the repair
// still grow with the backlog), and 1,280 at most simulateBytesBudget. It
// runs at GOMAXPROCS(1) with the GC off, so each Release is the buffer the
// next request gets back, and skips under -race, where sync.Pool drops Puts
// at random.
func TestSimulateAllocatesNoPerChunkBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation clauses run without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := NewServer(ServerOptions{PlanCacheEntries: -1})
	measure := func(tasks int) (allocated, objects uint64) {
		body := benchBody(128, tasks, []float64{64}, true, 1)
		serve := func() {
			w := &discardResponse{header: http.Header{}}
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
			if w.status != http.StatusOK {
				t.Fatalf("%d tasks: status %d", tasks, w.status)
			}
		}
		serve() // grows the pooled lexer, world, index, answer and run buffer to the body
		serve()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			serve()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
	}
	small, smallObjects := measure(1280)
	large, largeObjects := measure(5120)
	t.Logf("1,280 tasks: %d B in %d objects; 5,120 tasks: %d B in %d objects", small, smallObjects, large, largeObjects)
	if small > simulateBytesBudget {
		t.Errorf("a warm 1,280-task simulation allocated %d B, budget %d B", small, simulateBytesBudget)
	}
	if large > small+simulatePerChunkBudget {
		t.Errorf("a warm 5,120-task simulation allocated %d B, %d B more than 1,280 tasks; budget %d B", large, large-small, simulatePerChunkBudget)
	}
}
