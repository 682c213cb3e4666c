package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"opass/internal/telemetry"
)

// metricValue scrapes reg and returns the value of the first sample line
// containing every substring, or -1 if absent.
func metricValue(t *testing.T, reg *telemetry.Registry, substrs ...string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
lines:
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, s := range substrs {
			if !strings.Contains(line, s) {
				continue lines
			}
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v
	}
	return -1
}

func TestSimulateShedsWhenSaturated(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(ServerOptions{Registry: reg, MaxInflight: 1, QueueWait: 20 * time.Millisecond})
	// Occupy the route's whole admission budget, as a fat in-flight
	// request would.
	if err := s.simAdmit.acquire(context.Background(), 1, time.Second); err != nil {
		t.Fatal(err)
	}
	defer s.simAdmit.release(1)
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, body := post(t, srv, "/v1/simulate", layoutRequest("opass"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (20ms bound rounds up)", ra)
	}
	if got := metricValue(t, reg, MetricRequestsShed, `reason="queue_timeout"`, `route="/v1/simulate"`); got != 1 {
		t.Fatalf("shed counter = %v, want 1", got)
	}
	// /v1/plan has its own admitter and must still serve.
	resp, body = post(t, srv, "/v1/plan", layoutRequest("opass"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d while simulate saturated: %s", resp.StatusCode, body)
	}
}

func TestRequestDeadlineCancelsWork(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(ServerOptions{Registry: reg, RequestTimeout: time.Nanosecond})
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, body := post(t, srv, "/v1/simulate", layoutRequest("opass"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("body %q does not mention the deadline", body)
	}
	if got := metricValue(t, reg, MetricRequestsCancelled, `reason="deadline"`, `route="/v1/simulate"`); got != 1 {
		t.Fatalf("cancelled counter = %v, want 1", got)
	}
	// The expired request must have released its admission grant.
	if got := s.simAdmit.inFlight(); got != 0 {
		t.Fatalf("inFlight = %d after deadline, want 0", got)
	}
}

func TestQueuedClientDisconnectReleasesNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(ServerOptions{Registry: reg, MaxInflight: 1, QueueWait: time.Minute})
	if err := s.simAdmit.acquire(context.Background(), 1, time.Second); err != nil {
		t.Fatal(err)
	}
	defer s.simAdmit.release(1)
	srv := httptest.NewServer(s)
	defer srv.Close()

	raw, err := json.Marshal(layoutRequest("opass"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/simulate", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, "request queued for admission", func() bool { return s.simAdmit.queueLen() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}
	waitFor(t, "queue emptied", func() bool { return s.simAdmit.queueLen() == 0 })
	waitFor(t, "disconnect counted", func() bool {
		return metricValue(t, reg, MetricRequestsCancelled, `reason="disconnect"`, `route="/v1/simulate"`) == 1
	})
}

func TestMidRunClientDisconnectReleasesSlot(t *testing.T) {
	s := NewServer(ServerOptions{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// A layout big enough that planning + simulation takes real time if
	// cancellation were broken.
	big := PlanRequest{Nodes: 64, Strategy: "opass", Seed: 7}
	for i := 0; i < 20000; i++ {
		big.Tasks = append(big.Tasks, TaskSpec{Inputs: []InputSpec{{
			SizeMB:   64,
			Replicas: []int{i % 64, (i + 17) % 64, (i + 41) % 64},
		}}})
	}
	raw, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/simulate", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	waitFor(t, "request admitted", func() bool { return s.simAdmit.inFlight() > 0 })
	cancel()
	<-done
	// The lifecycle guarantee under test: the grant comes back promptly,
	// whether the request was cancelled mid-work or squeaked through.
	waitFor(t, "admission grant released", func() bool { return s.simAdmit.inFlight() == 0 })
}

func TestConcurrentSaturationNeverHangs(t *testing.T) {
	s := NewServer(ServerOptions{MaxInflight: 1, QueueWait: 10 * time.Millisecond})
	srv := httptest.NewServer(s)
	defer srv.Close()
	const clients = 8
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := post(t, srv, "/v1/simulate", layoutRequest("opass"))
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	ok200 := 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
		default:
			t.Errorf("client %d: status %d, want 200 or 429", i, st)
		}
	}
	if ok200 == 0 {
		t.Fatal("every client was shed; at least one should have been admitted")
	}
	if got := s.simAdmit.inFlight(); got != 0 {
		t.Fatalf("inFlight = %d after all clients returned, want 0", got)
	}
}

func TestDrainSheds503(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(ServerOptions{Registry: reg})
	srv := httptest.NewServer(s)
	defer srv.Close()
	s.Drain()
	resp, body := post(t, srv, "/v1/simulate", layoutRequest("opass"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	resp, _ = post(t, srv, "/v1/plan", layoutRequest("opass"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("plan status %d, want 503 while draining", resp.StatusCode)
	}
	if got := metricValue(t, reg, MetricRequestsShed, `reason="draining"`, `route="/v1/simulate"`); got != 1 {
		t.Fatalf("draining shed counter = %v, want 1", got)
	}
}

// brokenWriter fails every body write, as a hung-up client does.
type brokenWriter struct {
	h      http.Header
	status int
}

func (w *brokenWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *brokenWriter) WriteHeader(code int)      { w.status = code }
func (w *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

func TestWriteJSONCountsEncodeFailures(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(ServerOptions{Registry: reg})
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	s.writeJSON(&brokenWriter{}, r, http.StatusOK, map[string]string{"k": "v"})
	if got := metricValue(t, reg, MetricResponseErrors, `route="/v1/plan"`); got != 1 {
		t.Fatalf("response-error counter = %v, want 1", got)
	}
}

func TestWorkWeight(t *testing.T) {
	raw, err := json.Marshal(layoutRequest("opass")) // 8 tasks, 1 input each
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(raw))
	req, _, apiErr := decodeProblem(httptest.NewRecorder(), r, RequestLimits{}.withDefaults())
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if got := workWeight(req); got != 16 {
		t.Fatalf("workWeight = %d, want 16 (8 tasks + 8 inputs)", got)
	}
	empty := PlanRequest{}
	if got := workWeight(&empty); got != 1 {
		t.Fatalf("workWeight(empty) = %d, want floor 1", got)
	}
}
