package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
	"unsafe"

	"opass/internal/plancache"
	"opass/internal/report"
	"opass/internal/telemetry"
)

// decodes reports how many /v1/plan requests reached the decoder.
func decodes(t *testing.T, reg *telemetry.Registry) float64 {
	t.Helper()
	return metricValue(t, reg, MetricRequestDecodeSeconds+"_count", `route="/v1/plan"`)
}

// postReader posts body and reads the whole response. A reader of unknown
// length goes out chunked, with no Content-Length.
func postReader(t *testing.T, srv *httptest.Server, route string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+route, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestAliasedResponseMatchesFirst: every accepted grammar row and a
// paper-single body, posted twice, get the same bytes and headers both times;
// the second answer is an aliased hit, which runs neither the decoder nor the
// planner.
func TestAliasedResponseMatchesFirst(t *testing.T) {
	bodies := map[string]string{"paper-single": string(benchBody(256, 2560, []float64{64}, false, 1))}
	for _, row := range grammarRows {
		if row.status == http.StatusOK {
			bodies[row.class] = row.body
		}
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			srv, runs, reg := countingServer(t, ServerOptions{})
			first, want := postRaw(t, srv, "/v1/plan", body)
			second, got := postRaw(t, srv, "/v1/plan", body)
			if first.StatusCode != http.StatusOK || second.StatusCode != http.StatusOK {
				t.Fatalf("statuses %d, %d", first.StatusCode, second.StatusCode)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("aliased response differs from the first:\n%.300s\nvs\n%.300s", got, want)
			}
			if a, b := first.Header.Get("Content-Type"), second.Header.Get("Content-Type"); a != b {
				t.Fatalf("Content-Type %q then %q", a, b)
			}
			if n := decodes(t, reg); n != 1 {
				t.Fatalf("%v decodes for a body and its repeat, want 1", n)
			}
			if n := runs.Load(); n != 1 {
				t.Fatalf("planner ran %d times, want 1", n)
			}
			if n := reg.Counter(MetricPlanCacheHits).Value(); n != 1 {
				t.Fatalf("hits = %v, want 1", n)
			}
		})
	}
}

// TestRejectionsNeverAliased: a rejected body is decoded and rejected again
// on every repeat, with the same status, and an over-limit body keeps
// closing its connection — whether its Content-Length gives it away or it
// arrives chunked and overruns the limit while being read ahead.
func TestRejectionsNeverAliased(t *testing.T) {
	for _, row := range grammarRows {
		if row.status == http.StatusOK {
			continue
		}
		t.Run(row.class, func(t *testing.T) {
			srv, _, reg := countingServer(t, ServerOptions{})
			for i := 1; i <= 2; i++ {
				resp, out := postRaw(t, srv, "/v1/plan", row.body)
				if resp.StatusCode != row.status {
					t.Fatalf("post %d: status %d, want %d: %s", i, resp.StatusCode, row.status, out)
				}
				if n := decodes(t, reg); n != float64(i) {
					t.Fatalf("post %d: %v decodes, want %d", i, n, i)
				}
			}
		})
	}
	big := `{"nodes":4,` + oneTask + strings.Repeat(" ", 64<<10) + `}`
	for _, tc := range []struct {
		name string
		body func() io.Reader
	}{
		{"413, Content-Length", func() io.Reader { return strings.NewReader(big) }},
		{"413, chunked", func() io.Reader { return io.MultiReader(strings.NewReader(big)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, reg := countingServer(t, ServerOptions{Limits: RequestLimits{BodyBytes: 64 << 10}})
			for i := 1; i <= 2; i++ {
				resp, out := postReader(t, srv, "/v1/plan", tc.body())
				if resp.StatusCode != http.StatusRequestEntityTooLarge {
					t.Fatalf("post %d: status %d, want 413: %s", i, resp.StatusCode, out)
				}
				if !resp.Close && resp.Header.Get("Connection") != "close" {
					t.Fatalf("post %d: 413 does not close the poisoned connection", i)
				}
			}
			if got := metricValue(t, reg, MetricRequestsRejected, `reason="too_large"`); got != 2 {
				t.Fatalf("too_large rejections = %v, want 2", got)
			}
		})
	}
}

// TestReformattedBodyIsCanonicalHit: other bytes for the same problem miss
// the alias, are decoded, and hit the plan under its fingerprint. Under a
// compact query every alias holds its plan entry's own bytes, so a cold body
// retains one body and the entries that point at it.
func TestReformattedBodyIsCanonicalHit(t *testing.T) {
	srv, runs, reg := countingServer(t, ServerOptions{})
	s := srv.Config.Handler.(*Server)
	compact, err := json.Marshal(layoutRequest("opass"))
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(layoutRequest("opass"), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	_, want := postRaw(t, srv, "/v1/plan", string(compact))
	plan, ok := s.planCache.Lookup(planKeyOf(t, s, compact))
	if !ok || !bytes.Equal(plan.body, want) {
		t.Fatalf("plan entry (found %v) holds %q, want the 200 %q", ok, plan.body, want)
	}
	sharesPlanBody := func(body []byte) {
		t.Helper()
		alias, ok := s.planCache.Lookup(s.aliasKey("", body))
		if !ok || unsafe.SliceData(alias.body) != unsafe.SliceData(plan.body) || len(alias.body) != len(plan.body) {
			t.Fatalf("the alias of %.40q (found %v) does not share its plan entry's body", body, ok)
		}
	}
	sharesPlanBody(compact)
	resp, got := postRaw(t, srv, "/v1/plan", string(indented))
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("status %d, body %s, want %s", resp.StatusCode, got, want)
	}
	sharesPlanBody(indented)
	if n := reg.Counter(MetricPlanCacheHits).Value(); n != 1 {
		t.Fatalf("hits = %v, want 1", n)
	}
	if n := decodes(t, reg); n != 2 {
		t.Fatalf("%v decodes, want 2: the reformatted body must be decoded", n)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("planner ran %d times, want 1", n)
	}
}

// TestAliasPretty: ?pretty=1 is part of the alias, so the indented miss and
// its aliased hit are the same indented bytes, and the compact alias of the
// same body stays compact.
func TestAliasPretty(t *testing.T) {
	srv, _, reg := countingServer(t, ServerOptions{})
	raw, err := json.Marshal(layoutRequest("opass"))
	if err != nil {
		t.Fatal(err)
	}
	_, compact := postRaw(t, srv, "/v1/plan", string(raw))
	_, miss := postRaw(t, srv, "/v1/plan?pretty=1", string(raw))
	_, hit := postRaw(t, srv, "/v1/plan?pretty=1", string(raw))
	_, compactHit := postRaw(t, srv, "/v1/plan", string(raw))
	if !bytes.Contains(miss, []byte("\n  ")) || !bytes.Equal(hit, miss) {
		t.Fatalf("pretty miss %.80q, pretty hit %.80q: want equal indented bodies", miss, hit)
	}
	if bytes.Contains(compact, []byte("\n  ")) || !bytes.Equal(compactHit, compact) {
		t.Fatalf("compact miss %.80q, compact hit %.80q: want equal compact bodies", compact, compactHit)
	}
	if n := decodes(t, reg); n != 2 {
		t.Fatalf("%v decodes, want 2 (one per query)", n)
	}
}

// TestBodyAboveAliasCapStreams: a body of maxAliasBody bytes or more — a
// small problem padded with whitespace — plans correctly and is never
// aliased, whether its length is declared or it arrives chunked.
func TestBodyAboveAliasCapStreams(t *testing.T) {
	raw, err := json.Marshal(layoutRequest("opass"))
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw[:len(raw)-1]) + strings.Repeat(" ", maxAliasBody) + "}"
	for _, tc := range []struct {
		name string
		body func() io.Reader
	}{
		{"Content-Length", func() io.Reader { return strings.NewReader(body) }},
		{"chunked", func() io.Reader { return io.MultiReader(strings.NewReader(body)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, runs, reg := countingServer(t, ServerOptions{})
			_, want := postRaw(t, srv, "/v1/plan", string(raw))
			for i := 1; i <= 2; i++ {
				resp, got := postReader(t, srv, "/v1/plan", tc.body())
				if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
					t.Fatalf("post %d: status %d, body %.200s, want %.200s", i, resp.StatusCode, got, want)
				}
				if n := decodes(t, reg); n != float64(1+i) {
					t.Fatalf("post %d: %v decodes, want %d", i, n, 1+i)
				}
			}
			if n := runs.Load(); n != 1 {
				t.Fatalf("planner ran %d times, want 1", n)
			}
		})
	}
}

// TestAliasedHitSkipsAdmission: with /v1/plan's admission budget taken, a
// repeated body is answered at once, while a new body — and other bytes for
// the cached problem, which must be decoded — queue and are shed with 429.
func TestAliasedHitSkipsAdmission(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(ServerOptions{Registry: reg, MaxInflight: 64, QueueWait: 20 * time.Millisecond})
	srv := httptest.NewServer(s)
	defer srv.Close()
	raw, err := json.Marshal(layoutRequest("opass"))
	if err != nil {
		t.Fatal(err)
	}
	if resp, out := postRaw(t, srv, "/v1/plan", string(raw)); resp.StatusCode != http.StatusOK {
		t.Fatalf("first post: status %d: %s", resp.StatusCode, out)
	}
	if err := s.planAdmit.acquire(context.Background(), 64, time.Second); err != nil {
		t.Fatal(err)
	}
	defer s.planAdmit.release(64)
	if resp, out := postRaw(t, srv, "/v1/plan", string(raw)); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeated body while saturated: status %d, want 200: %s", resp.StatusCode, out)
	}
	reformatted := " " + string(raw)
	fresh, err := json.Marshal(layoutRequest("rank"))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{reformatted, string(fresh)} {
		if resp, out := postRaw(t, srv, "/v1/plan", body); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429: %s", resp.StatusCode, out)
		}
	}
	if got := metricValue(t, reg, MetricRequestsShed, `reason="queue_timeout"`, `route="/v1/plan"`); got != 2 {
		t.Fatalf("shed counter = %v, want 2", got)
	}
}

// TestAliasedHitAllocatesLessThanItsBody: a warm aliased hit of the
// paper-single body (256 processes x 2,560 tasks, ~132 KB) allocates less
// than an eighth of the body's bytes, in at most 16 objects — it reads into a
// pooled buffer, hashes it and writes stored bytes. Decoding the body alone
// allocates more than the body. It runs at GOMAXPROCS(1) with the GC off so
// the pooled buffer comes back, and skips under -race, where sync.Pool drops
// Puts at random.
func TestAliasedHitAllocatesLessThanItsBody(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	body := benchBody(256, 2560, []float64{64}, false, 1)
	s := NewServer(ServerOptions{})
	serve := func() {
		w := &discardResponse{header: http.Header{}}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	serve() // the miss that stores the alias
	serve() // warms the body buffer
	const hits = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range hits {
		serve()
	}
	runtime.ReadMemStats(&after)
	got, budget := (after.TotalAlloc-before.TotalAlloc)/hits, uint64(len(body)/8)
	if got >= budget {
		t.Fatalf("a warm aliased hit allocated %d B, budget %d B (1/8 of the %d B body)", got, budget, len(body))
	}
	// The request and recorder this harness builds are counted too.
	const maxObjects = 16
	objects := (after.Mallocs - before.Mallocs) / hits
	if objects > maxObjects {
		t.Fatalf("a warm aliased hit allocated %d objects, want at most %d", objects, maxObjects)
	}
	t.Logf("aliased hit: %d B allocated, budget %d B; %d objects", got, budget, objects)
}

// TestSimulateOversizedInputsAre400: two inputs of 1e307 MB are finite, but
// each is above the 2^40 MB the planner's capacity encoding holds, so the
// decoder's validation rejects them before anything is simulated.
func TestSimulateOversizedInputsAre400(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(ServerOptions{Registry: reg}))
	defer srv.Close()
	body := `{"nodes":2,"tasks":[{"inputs":[{"size_mb":1e307,"replicas":[0]}]},{"inputs":[{"size_mb":1e307,"replicas":[1]}]}]}`
	resp, out := postRaw(t, srv, "/v1/simulate", body)
	rejection(t, reg, resp, out, http.StatusBadRequest, "invalid", "size 1e+307")
}

// TestSimulateRenderNaNSummaryIs500: the simulate renderer, handed a summary
// that does not marshal, answers with a 500 carrying the JSON envelope,
// counted as a response failure, and no 200 byte written.
func TestSimulateRenderNaNSummaryIs500(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(ServerOptions{Registry: reg})
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/simulate", nil)
	plan := PlanResponse{Strategy: "opass-flow", Owner: []int{0}, Lists: [][]int{{0}}, LocalityFraction: 1}
	s.writeSimulate(rec, r, &SimulateResponse{Plan: plan, Summary: report.Summary{Makespan: math.NaN()}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %q", rec.Code, rec.Body.Bytes())
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "unsupported value") {
		t.Fatalf("body %q is not the JSON envelope naming the marshal failure (%v)", rec.Body.Bytes(), err)
	}
	if got := metricValue(t, reg, MetricResponseErrors, `route="/v1/simulate"`); got != 1 {
		t.Fatalf("response-error counter = %v, want 1", got)
	}
}

// planKeyOf is the plan cache's key for the problem body posts.
func planKeyOf(t *testing.T, s *Server, body []byte) plancache.Key {
	t.Helper()
	req, prob, apiErr := decodeProblemReference(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)), s.limits)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	as, apiErr := pickAssigner(req, prob)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(req.Seed))
	return s.planKey(prob.AppendCanonical(nil), as.Name(), seed[:])
}
