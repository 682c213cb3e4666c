package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"opass/internal/telemetry"
)

func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()

	// Drive traffic: two plans (different strategies), one simulate, one
	// rejected request.
	for _, s := range []string{"opass", "rank"} {
		resp, body := post(t, srv, "/v1/plan", layoutRequest(s))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan %s: %d %s", s, resp.StatusCode, body)
		}
	}
	if resp, _ := post(t, srv, "/v1/simulate", layoutRequest("opass")); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d", resp.StatusCode)
	}
	if resp, _ := post(t, srv, "/v1/plan", PlanRequest{Nodes: 0}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad plan: %d", resp.StatusCode)
	}

	out := scrape(t, srv)
	for _, want := range []string{
		// Request accounting from the middleware, labeled per route
		// (labels render in sorted key order).
		`opass_http_requests_total{method="POST",route="/v1/plan",status="200"} 2`,
		`opass_http_requests_total{method="POST",route="/v1/simulate",status="200"} 1`,
		`opass_http_requests_total{method="POST",route="/v1/plan",status="400"} 1`,
		`opass_http_request_duration_seconds_count{route="/v1/plan"} 3`,
		// The decode stage is timed for every request that reaches it,
		// rejected ones included.
		`opass_request_decode_seconds_count{route="/v1/plan"} 3`,
		`opass_request_decode_seconds_count{route="/v1/simulate"} 1`,
		// Inside the one simulate request: host time of the engine stage, and
		// the simulator's work. The layout is 4 nodes x 2 local 64 MB reads
		// each, in lockstep: per wave one event when the read latencies expire
		// and one when the reads complete, each following a rate recompute.
		"opass_sim_engine_seconds_count 1",
		"opass_sim_events_total 4",
		"opass_sim_rate_recomputes_total 4",
		// Per-strategy planner-latency histograms recorded inside
		// computePlan(). The simulate request reuses the cached opass plan
		// from the identical /v1/plan request, so opass-flow ran once.
		`opass_planner_latency_seconds_count{strategy="opass-flow"} 1`,
		`opass_planner_latency_seconds_count{strategy="rank-static"} 1`,
		`opass_planner_latency_seconds_bucket{strategy="opass-flow",le="+Inf"} 1`,
		// Locality fractions: the 4-node matching layout plans fully local.
		`opass_plan_locality_fraction_count{strategy="opass-flow"} 1`,
		// Plan-cache accounting: opass + rank missed, simulate hit. Each
		// plan is cached twice: under its fingerprint, and as the encoded
		// response to its /v1/plan body.
		"opass_plan_cache_misses_total 2",
		"opass_plan_cache_hits_total 1",
		"opass_plan_cache_entries 4",
		// Engine gauges updated after /v1/simulate.
		"opass_sim_runs_total 1",
		"opass_sim_last_tasks_run 8",
		"opass_sim_last_retries 0",
		"opass_sim_last_local_fraction 1",
		`opass_requests_rejected_total{reason="invalid"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if !strings.Contains(out, "opass_sim_last_makespan_seconds") {
		t.Error("scrape missing makespan gauge")
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", out)
	}
}

func TestMetricsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(ServerOptions{Registry: reg}))
	defer srv.Close()
	post(t, srv, "/v1/plan", layoutRequest("rank"))
	if got := reg.Counter(MetricPlans, telemetry.L("strategy", "rank-static")).Value(); got != 1 {
		t.Fatalf("shared registry plans counter = %v, want 1", got)
	}
}

func TestRequestIDAndLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	srv := httptest.NewServer(NewServer(ServerOptions{Logger: logger}))
	defer srv.Close()

	resp, _ := post(t, srv, "/v1/plan", layoutRequest(""))
	if resp.Header.Get(telemetry.RequestIDHeader) == "" {
		t.Fatal("response missing X-Request-Id")
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	var entry map[string]any
	if err := json.Unmarshal([]byte(strings.Split(strings.TrimSpace(logged), "\n")[0]), &entry); err != nil {
		t.Fatalf("bad log line %q: %v", logged, err)
	}
	if entry["route"] != "/v1/plan" || entry["status"] != float64(200) {
		t.Fatalf("log entry: %v", entry)
	}
	if entry["id"] != resp.Header.Get(telemetry.RequestIDHeader) {
		t.Fatal("logged request id does not match response header")
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestBodyTooLargeReturns413(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{
		Limits: RequestLimits{BodyBytes: 64 << 10},
	}))
	defer srv.Close()
	// An over-limit body must be rejected with 413 and a clean JSON
	// envelope, not a generic 400 leaking the Go error string — and the
	// connection must be closed, since MaxBytesReader poisoned the stream.
	big := make([]byte, (64<<10)+1024)
	for i := range big {
		big[i] = ' '
	}
	copy(big, `{"nodes": 4, "tasks": [`)
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if !resp.Close && resp.Header.Get("Connection") != "close" {
		t.Error("413 response does not close the poisoned connection")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("413 body is not the JSON envelope: %v", err)
	}
	if !strings.Contains(e.Error, "exceeds") || strings.Contains(e.Error, "http:") {
		t.Fatalf("unclean 413 message: %q", e.Error)
	}
	if !strings.Contains(scrape(t, srv), `opass_requests_rejected_total{reason="too_large"} 1`) {
		t.Error("rejection not counted")
	}
}

func TestProcNodesValidation(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()
	req := layoutRequest("")
	req.ProcNodes = []int{0, 1, 2, 7}
	resp, body := post(t, srv, "/v1/plan", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	json.Unmarshal(body, &e)
	if !strings.Contains(e.Error, "proc_nodes[3]") {
		t.Fatalf("error %q does not name the offending entry", e.Error)
	}
	// Oversized process lists are refused up front with a specific message.
	req = layoutRequest("")
	req.ProcNodes = make([]int, (1<<16)+1)
	resp, body = post(t, srv, "/v1/plan", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized proc_nodes status = %d, want 400", resp.StatusCode)
	}
	json.Unmarshal(body, &e)
	if !strings.Contains(e.Error, "proc_nodes") || !strings.Contains(e.Error, "maximum") {
		t.Fatalf("oversized proc_nodes error %q lacks a specific message", e.Error)
	}
}

// TestConcurrentHandlers hammers plan/simulate/metrics from many goroutines;
// under -race it proves the registry and the stateless planners are
// race-free.
func TestConcurrentHandlers(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(ServerOptions{Registry: reg}))
	defer srv.Close()

	const workers, iters = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			strategies := []string{"opass", "rank", "random", "greedy"}
			for i := 0; i < iters; i++ {
				req := layoutRequest(strategies[(w+i)%len(strategies)])
				req.Seed = int64(w*1000 + i)
				path := "/v1/plan"
				if (w+i)%3 == 0 {
					path = "/v1/simulate"
				}
				raw, _ := json.Marshal(req)
				resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
				}
				if i%4 == 0 {
					r2, err := http.Get(srv.URL + "/metrics")
					if err != nil {
						errs <- err
						continue
					}
					io.Copy(io.Discard, r2.Body)
					r2.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var total float64
	for _, s := range []string{"opass-flow", "rank-static", "random-static"} {
		total += reg.Counter(MetricPlans, telemetry.L("strategy", s)).Value()
	}
	if total != workers*iters {
		t.Fatalf("plans counted = %v, want %d", total, workers*iters)
	}
}
