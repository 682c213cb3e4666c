package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
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

// TestWriteErrorCountsWriteFailures: a failed write is counted and logged
// under the request ID on the response header.
func TestWriteErrorCountsWriteFailures(t *testing.T) {
	reg := telemetry.NewRegistry()
	var log bytes.Buffer
	s := NewServer(ServerOptions{Registry: reg, Logger: slog.New(slog.NewJSONHandler(&log, nil))})
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	w := &brokenWriter{}
	w.Header().Set(telemetry.RequestIDHeader, "req-7")
	s.writeError(w, r, http.StatusBadRequest, "bad body")
	if got := metricValue(t, reg, MetricResponseErrors, `route="/v1/plan"`); got != 1 {
		t.Fatalf("response-error counter = %v, want 1", got)
	}
	var entry map[string]any
	if err := json.Unmarshal(log.Bytes(), &entry); err != nil || entry["id"] != "req-7" {
		t.Fatalf("log line %q (%v) does not carry the request ID", log.Bytes(), err)
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
	defer req.release()
	if got := workWeight(req); got != 16 {
		t.Fatalf("workWeight = %d, want 16 (8 tasks + 8 inputs)", got)
	}
	empty := PlanRequest{}
	if got := workWeight(&empty); got != 1 {
		t.Fatalf("workWeight(empty) = %d, want floor 1", got)
	}
}

// TestArenaWindowReleasedOnEveryWayOut: a decoded problem borrows its
// request's pooled lexer, and every way out past the decoder gives it back
// (TestDecodeWindowReleased covers the ways out of the decoder itself). After
// a planner error it goes to the GC, not the pool, since a detached flight
// leader may still be planning the problem; it counts as returned either way.
func TestArenaWindowReleasedOnEveryWayOut(t *testing.T) {
	raw, err := json.Marshal(layoutRequest("opass"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		opts     ServerOptions
		route    string
		saturate bool // hold the route's whole admission budget
		status   int
	}{
		{"plan success", ServerOptions{}, "/v1/plan", false, http.StatusOK},
		{"plan success, cache off", ServerOptions{PlanCacheEntries: -1}, "/v1/plan", false, http.StatusOK},
		{"simulate success", ServerOptions{}, "/v1/simulate", false, http.StatusOK},
		{"admission shed", ServerOptions{MaxInflight: 1, QueueWait: time.Millisecond}, "/v1/plan", true, http.StatusTooManyRequests},
		{"plan deadline", ServerOptions{RequestTimeout: time.Nanosecond}, "/v1/plan", false, http.StatusServiceUnavailable},
		{"simulate deadline", ServerOptions{RequestTimeout: time.Nanosecond}, "/v1/simulate", false, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(tc.opts)
			if tc.saturate {
				if err := s.planAdmit.acquire(context.Background(), 1, time.Second); err != nil {
					t.Fatal(err)
				}
				defer s.planAdmit.release(1)
			}
			lexers := lexersOut.Load()
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.route, bytes.NewReader(raw)))
			if w.Code != tc.status {
				t.Fatalf("status %d (%s), want %d", w.Code, w.Body, tc.status)
			}
			if got := lexersOut.Load(); got != lexers {
				t.Fatalf("%d windows out after the request, %d before", got, lexers)
			}
		})
	}
	t.Run("flight leader disconnects", flightLeaderDisconnects)
}

// flightLeaderDisconnects: a plan-cache flight's leader hangs up mid-plan
// while a coalesced follower waits. The leader's arena counts as returned at
// once, yet its problem is still what the detached flight plans: a different
// body of the same shape decoded meanwhile, into whatever the pool hands out,
// must not reach the follower's answer. It runs at GOMAXPROCS(1) with the GC
// off so a lexer wrongly pooled on the leader's way out is the one handed out.
func flightLeaderDisconnects(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	body := benchBody(16, 256, []float64{30, 20}, false, 1)
	other := benchBody(16, 256, []float64{30, 20}, false, 2)
	reg := telemetry.NewRegistry()
	s := NewServer(ServerOptions{Registry: reg})
	entered, unblock := make(chan struct{}, 1), make(chan struct{})
	s.plannerRan = func() {
		entered <- struct{}{}
		<-unblock
	}
	lexers := lexersOut.Load()
	serve := func(ctx context.Context, w *httptest.ResponseRecorder, done chan<- struct{}) {
		defer close(done)
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)).WithContext(ctx))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader, leaderDone := httptest.NewRecorder(), make(chan struct{})
	go serve(ctx, leader, leaderDone)
	<-entered
	follower, followerDone := httptest.NewRecorder(), make(chan struct{})
	go serve(context.Background(), follower, followerDone)
	// The coalesced counter moves only once the follower is answered, so
	// its joining shows as a second goroutine parked in the flight's wait.
	waitFor(t, "follower coalesced", func() bool {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "plancache.(*Cache[...]).wait(") == 2
	})
	cancel()
	<-leaderDone
	if leader.Code != statusClientClosedRequest {
		t.Errorf("leader status %d, want %d", leader.Code, statusClientClosedRequest)
	}
	if got := lexersOut.Load(); got != lexers+1 {
		t.Errorf("%d windows out with the follower waiting, want %d", got, lexers+1)
	}
	var held []*PlanRequest
	for range 4 {
		req, _, apiErr := decodeProblem(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(other)), s.limits)
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		held = append(held, req)
	}
	for _, req := range held {
		req.release()
	}
	close(unblock)
	<-followerDone
	if got := reg.Counter(MetricPlanCacheCoalesced).Value(); got != 1 {
		t.Fatalf("coalesced counter = %v, want 1", got)
	}
	if got := lexersOut.Load(); got != lexers {
		t.Fatalf("%d windows out after both requests, %d before", got, lexers)
	}
	fresh := httptest.NewRecorder()
	NewServer(ServerOptions{PlanCacheEntries: -1}).ServeHTTP(fresh, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	var got, want PlanResponse
	for _, r := range []struct {
		w   *httptest.ResponseRecorder
		out *PlanResponse
	}{{follower, &got}, {fresh, &want}} {
		if r.w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", r.w.Code, r.w.Body)
		}
		if err := json.Unmarshal(r.w.Body.Bytes(), r.out); err != nil {
			t.Fatal(err)
		}
	}
	got.PlannerMillis, want.PlannerMillis = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the follower's plan is not the plan of its own body")
	}
}
