package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opass/internal/dfs"
	"opass/internal/plancache"
	"opass/internal/telemetry"
)

// fsView is a minimal single-rack ClusterView for building test layouts.
type fsView struct{ n int }

func (v fsView) NumNodes() int  { return v.n }
func (v fsView) RackOf(int) int { return 0 }

// countingServer builds a server whose plannerRan hook counts actual
// planner invocations — the ground truth cache hits must not disturb.
func countingServer(t *testing.T, opts ServerOptions) (*httptest.Server, *atomic.Int64, *telemetry.Registry) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	s := NewServer(opts)
	var runs atomic.Int64
	s.plannerRan = func() { runs.Add(1) }
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, &runs, opts.Registry
}

// requestFromFS derives the PlanRequest a client would build after reading
// the file's block locations from the namenode: one single-input task per
// chunk, replicas exactly as placed.
func requestFromFS(fs *dfs.FileSystem, f *dfs.File, strategy string) PlanRequest {
	req := PlanRequest{Nodes: 4, Strategy: strategy, Seed: 1}
	for _, id := range f.Chunks {
		c := fs.Chunk(id)
		req.Tasks = append(req.Tasks, TaskSpec{Inputs: []InputSpec{{
			SizeMB:   c.SizeMB,
			Replicas: append([]int(nil), c.Replicas...),
		}}})
	}
	return req
}

// TestPlanCacheHitAndMoveReplicaInvalidation is the acceptance test for the
// plan cache: two identical back-to-back /v1/plan requests must invoke the
// planner once and return byte-identical bodies, and a MoveReplica on the
// cluster between requests (reflected in the re-read layout) must force a
// recompute.
func TestPlanCacheHitAndMoveReplicaInvalidation(t *testing.T) {
	srv, runs, reg := countingServer(t, ServerOptions{})

	fs := dfs.New(fsView{4}, dfs.Config{Replication: 2})
	f, err := fs.CreateChunksReplicated("/data", []float64{64, 64, 64, 64}, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}

	req := requestFromFS(fs, f, "opass")
	resp1, body1 := post(t, srv, "/v1/plan", req)
	resp2, body2 := post(t, srv, "/v1/plan", req)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("planner ran %d times for two identical requests, want 1", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached response differs from original:\n%s\nvs\n%s", body1, body2)
	}
	if got := reg.Counter(MetricPlanCacheHits).Value(); got != 1 {
		t.Fatalf("hits = %v, want 1", got)
	}

	// Strategy "" resolves to the same planner as "opass", so it must share
	// the cache entry rather than recompute.
	req.Strategy = ""
	if _, body := post(t, srv, "/v1/plan", req); !bytes.Equal(body, body1) {
		t.Fatal("default strategy did not share the opass cache entry")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("planner ran %d times after aliased-strategy request, want 1", got)
	}

	// Operator moves a replica; the client re-reads block locations and the
	// resulting request must miss the cache and replan.
	if err := fs.MoveReplica(f.Chunks[0], 0, 2); err != nil {
		t.Fatal(err)
	}
	moved := requestFromFS(fs, f, "opass")
	if resp, _ := post(t, srv, "/v1/plan", moved); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-move status %d", resp.StatusCode)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("planner ran %d times after MoveReplica, want 2 (recompute forced)", got)
	}

	// A different seed is a different fingerprint even on identical layout.
	moved.Seed = 99
	post(t, srv, "/v1/plan", moved)
	if got := runs.Load(); got != 3 {
		t.Fatalf("planner ran %d times after seed change, want 3", got)
	}
}

// TestPlanCacheCoalescesConcurrentRequests proves N concurrent identical
// requests run the planner exactly once: the leader computes, the rest
// coalesce onto its flight or hit the stored entry. Run under -race this
// also exercises the cache's synchronization.
func TestPlanCacheCoalescesConcurrentRequests(t *testing.T) {
	const clients = 16
	release := make(chan struct{})
	srv, runs, reg := countingServer(t, ServerOptions{})
	// Stall the first (and only, if coalescing works) planner run until all
	// clients have sent their requests, so they genuinely overlap.
	s := srv.Config.Handler.(*Server)
	s.plannerRan = func() {
		runs.Add(1)
		select {
		case <-release:
		case <-time.After(5 * time.Second):
		}
	}

	req := layoutRequest("opass")
	raw, _ := json.Marshal(req)
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var started, done sync.WaitGroup
	for i := 0; i < clients; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			resp, err := http.Post(srv.URL+"/v1/plan", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	started.Wait()
	// All requests are in flight (or queued); let the single compute finish.
	close(release)
	done.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("planner ran %d times for %d concurrent identical requests, want 1", got, clients)
	}
	misses := reg.Counter(MetricPlanCacheMisses).Value()
	coalesced := reg.Counter(MetricPlanCacheCoalesced).Value()
	hits := reg.Counter(MetricPlanCacheHits).Value()
	if misses != 1 {
		t.Fatalf("misses = %v, want 1", misses)
	}
	if misses+coalesced+hits != clients {
		t.Fatalf("outcome accounting %v+%v+%v != %d clients", misses, coalesced, hits, clients)
	}
}

// TestPlanCacheDisabled verifies PlanCacheEntries < 0 turns the cache off:
// every request runs the planner.
func TestPlanCacheDisabled(t *testing.T) {
	srv, runs, reg := countingServer(t, ServerOptions{PlanCacheEntries: -1})
	req := layoutRequest("opass")
	post(t, srv, "/v1/plan", req)
	post(t, srv, "/v1/plan", req)
	if got := runs.Load(); got != 2 {
		t.Fatalf("planner ran %d times with cache disabled, want 2", got)
	}
	if got := reg.Counter(MetricPlanCacheHits).Value(); got != 0 {
		t.Fatalf("hits counter moved (%v) with cache disabled", got)
	}
}

// TestSimulateSharesPlanCache verifies /v1/simulate reuses a plan cached by
// /v1/plan for the same layout (the simulation itself always runs).
func TestSimulateSharesPlanCache(t *testing.T) {
	srv, runs, _ := countingServer(t, ServerOptions{})
	req := layoutRequest("opass")
	if resp, body := post(t, srv, "/v1/plan", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d %s", resp.StatusCode, body)
	}
	resp, body := post(t, srv, "/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan.Strategy != "opass-flow" {
		t.Fatalf("simulate plan strategy %q", out.Plan.Strategy)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("planner ran %d times across plan+simulate of one layout, want 1", got)
	}
}

// TestPlanCacheBytesCountEveryEntry: after one cold /v1/plan a scrape reads
// the plan entry's estimate — owner and list payloads, list headers, the
// body, the envelope — plus the body alias, which charges the body it shares
// and its own envelope.
func TestPlanCacheBytesCountEveryEntry(t *testing.T) {
	srv, _, reg := countingServer(t, ServerOptions{})
	resp, body := post(t, srv, "/v1/plan", layoutRequest("opass"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var plan PlanResponse
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	want := 8*len(plan.Owner) + len(body) + entryOverheadBytes
	for _, l := range plan.Lists {
		want += 24 + 8*len(l)
	}
	want += len(body) + entryOverheadBytes
	scrape(t, srv)
	if got := metricValue(t, reg, MetricPlanCacheBytes); got != float64(want) {
		t.Fatalf("%s = %v, want %d", MetricPlanCacheBytes, got, want)
	}
}

// TestScrapedCacheMetricsMatchTheCache: eight clients post distinct cold
// bodies against a four-entry cache, evicting as they race; one scrape then
// reads the cache's own entry, byte and eviction totals. 32 bodies store 32
// plans and 32 aliases, so 60 entries were evicted.
func TestScrapedCacheMetricsMatchTheCache(t *testing.T) {
	srv, _, reg := countingServer(t, ServerOptions{PlanCacheEntries: 4})
	s := srv.Config.Handler.(*Server)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 {
				req := layoutRequest("opass")
				req.Seed = int64(g*4 + i)
				raw, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(srv.URL+"/v1/plan", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	scrape(t, srv)
	stats := s.planCache.Stats()
	if stats.Evictions != 60 {
		t.Errorf("cache counted %d evictions, want 60", stats.Evictions)
	}
	for name, want := range map[string]float64{
		MetricPlanCacheEntries:   float64(stats.Entries),
		MetricPlanCacheBytes:     float64(stats.Bytes),
		MetricPlanCacheEvictions: float64(stats.Evictions),
	} {
		if got := metricValue(t, reg, name+" "); got != want {
			t.Errorf("%s = %v, the cache holds %v", name, got, want)
		}
	}
}

// TestCacheKeysAreProcessLocal: the plan cache's keys are MACs under a key
// each server draws for itself — one body gets one alias key from a server
// and another from a second server — and their framing holds: moving bytes
// between the query and the body, or between the canonical bytes, the
// strategy and the seed, changes the key, and an alias key is never a plan
// key.
func TestCacheKeysAreProcessLocal(t *testing.T) {
	a, b := NewServer(ServerOptions{}), NewServer(ServerOptions{})
	raw, err := json.Marshal(layoutRequest("opass"))
	if err != nil {
		t.Fatal(err)
	}
	if a.aliasKey("", raw) != a.aliasKey("", raw) {
		t.Fatal("one server keys one body two ways")
	}
	if a.aliasKey("", raw) == b.aliasKey("", raw) {
		t.Fatal("two servers key one body alike")
	}
	if a.aliasKey("pretty=1", raw) == a.aliasKey("pretty=", append([]byte("1"), raw...)) {
		t.Fatal("a byte moved from the query into the body keeps the alias key")
	}
	canon := []byte("canonical")
	seed := []byte{7, 0, 0, 0, 0, 0, 0, 0}
	keys := []plancache.Key{
		a.planKey(canon, "opass", seed),
		a.planKey(canon[:8], "lopass", seed),
		a.planKey(canon, "opass\x07", seed[1:]),
		a.planKey(append(canon, 's'), "opas", seed),
		a.aliasKey("opass", canon),
		a.aliasKey("", canon),
	}
	for i := range keys {
		for j := range i {
			if keys[i] == keys[j] {
				t.Fatalf("keys %d and %d are equal", j, i)
			}
		}
	}
}
