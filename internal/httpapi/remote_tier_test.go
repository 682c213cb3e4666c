package httpapi

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opass/internal/plancache"
	"opass/internal/plancache/plancachetest"
	"opass/internal/telemetry"
)

// replica builds one opassd-like server wired to the shared tier, with a
// planner-invocation counter.
func replica(t *testing.T, tier plancache.Tier) (*httptest.Server, *telemetry.Registry, *atomic.Int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s := NewServer(ServerOptions{Registry: reg, RemoteTier: tier})
	var ran atomic.Int64
	s.plannerRan = func() { ran.Add(1) }
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, reg, &ran
}

// TestTwoReplicasOnePlannerRun is the fleet-dedup acceptance check: two
// replicas sharing a memcached-protocol tier serve a repeated request with
// exactly one planner run between them, and return identical plans.
func TestTwoReplicasOnePlannerRun(t *testing.T) {
	mc, err := plancachetest.NewMemcachedServer()
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	tierA := plancache.NewRemote(mc.Addr(), plancache.RemoteOptions{})
	defer tierA.Close()
	tierB := plancache.NewRemote(mc.Addr(), plancache.RemoteOptions{})
	defer tierB.Close()

	srvA, regA, ranA := replica(t, tierA)
	srvB, regB, ranB := replica(t, tierB)

	req := layoutRequest("opass")
	respA, bodyA := post(t, srvA, "/v1/plan", req)
	if respA.StatusCode != 200 {
		t.Fatalf("replica A: %d %s", respA.StatusCode, bodyA)
	}
	if ranA.Load() != 1 {
		t.Fatalf("replica A planner runs = %d, want 1", ranA.Load())
	}
	if got := metricValue(t, regA, MetricPlanCacheRemoteSets); got != 1 {
		t.Fatalf("replica A remote sets = %v, want 1", got)
	}
	if got := metricValue(t, regA, MetricPlanCacheRemoteMisses); got != 1 {
		t.Fatalf("replica A remote misses = %v, want 1", got)
	}

	respB, bodyB := post(t, srvB, "/v1/plan", req)
	if respB.StatusCode != 200 {
		t.Fatalf("replica B: %d %s", respB.StatusCode, bodyB)
	}
	if ranB.Load() != 0 {
		t.Fatalf("replica B planner runs = %d, want 0 (plan adopted from the tier)", ranB.Load())
	}
	if got := metricValue(t, regB, MetricPlanCacheRemoteHits); got != 1 {
		t.Fatalf("replica B remote hits = %v, want 1", got)
	}

	var planA, planB PlanResponse
	if err := json.Unmarshal(bodyA, &planA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyB, &planB); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(planA.Owner) != fmt.Sprint(planB.Owner) ||
		fmt.Sprint(planA.Lists) != fmt.Sprint(planB.Lists) ||
		planA.LocalityFraction != planB.LocalityFraction {
		t.Fatalf("replicas disagree:\nA: %+v\nB: %+v", planA, planB)
	}

	// Replica B's copy now also lives in its L1: a third request runs no
	// planner and touches no counters on A.
	post(t, srvB, "/v1/plan", req)
	if ranA.Load()+ranB.Load() != 1 {
		t.Fatalf("total planner runs = %d after 3 requests, want 1", ranA.Load()+ranB.Load())
	}

	// A different request misses the tier and plans locally.
	other := layoutRequest("opass")
	other.Seed = 99
	post(t, srvA, "/v1/plan", other)
	if ranA.Load() != 2 {
		t.Fatalf("replica A planner runs = %d after distinct request, want 2", ranA.Load())
	}
}

// TestTierFailureDegradesToLocal: a dead remote tier must cost errors
// counters only — every request still plans locally and succeeds.
func TestTierFailureDegradesToLocal(t *testing.T) {
	mc, err := plancachetest.NewMemcachedServer()
	if err != nil {
		t.Fatal(err)
	}
	addr := mc.Addr()
	mc.Close() // tier backend is down before the first request
	r := plancache.NewRemote(addr, plancache.RemoteOptions{})
	defer r.Close()

	srv, reg, ran := replica(t, r)
	resp, body := post(t, srv, "/v1/plan", layoutRequest("opass"))
	if resp.StatusCode != 200 {
		t.Fatalf("request failed with dead tier: %d %s", resp.StatusCode, body)
	}
	if ran.Load() != 1 {
		t.Fatalf("planner runs = %d, want 1", ran.Load())
	}
	if got := metricValue(t, reg, MetricPlanCacheRemoteErrors); got < 2 {
		t.Fatalf("remote errors = %v, want >= 2 (failed get + failed set)", got)
	}
}

// recordingTier is an in-memory Tier that remembers the keys it was asked
// to fetch and to store.
type recordingTier struct {
	mu   sync.Mutex
	data map[string][]byte
	gets []string
	sets []string
}

func (r *recordingTier) Get(_ context.Context, key string) ([]byte, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gets = append(r.gets, key)
	v, ok := r.data[key]
	return v, ok, nil
}

func (r *recordingTier) Set(_ context.Context, key string, value []byte, _ time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.data == nil {
		r.data = map[string][]byte{}
	}
	r.data[key] = value
	r.sets = append(r.sets, key)
	return nil
}

// TestRemoteTierKeyPinned pins the fleet keyspace: the remote key of a
// literal request is an exact string — namespace, ":", the fingerprint in
// hex — on both routes, so replicas of one version adopt each other's plans
// and a change to the key is a deliberate, visible keyspace split. The
// replica rows are unsorted on purpose: the fingerprint is over the
// ascending row, as the dfs ledger keeps it.
func TestRemoteTierKeyPinned(t *testing.T) {
	const body = `{"nodes":4,"seed":7,"tasks":[{"inputs":[{"size_mb":64,"replicas":[2,0]}]},{"inputs":[{"size_mb":32,"replicas":[3,1,0]}]}]}`
	const want = "opass2:58cfa1f55e98a65600012c36da01818d437a03e05308d0efe3f26dbcd19b1a68"
	for _, route := range []string{"/v1/plan", "/v1/simulate"} {
		tier := &recordingTier{}
		srv, _, _ := replica(t, tier)
		resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", route, resp.StatusCode)
		}
		if len(tier.sets) != 1 || tier.sets[0] != want {
			t.Errorf("%s published under %q, want %q", route, tier.sets, want)
		}
	}
}

// TestTierPlanOfAnotherStrategyIsAMiss: a tier value under the right key
// whose plan names another strategy is a miss, counted as a remote error,
// so every strategy the renderer writes is one the service resolved.
func TestTierPlanOfAnotherStrategyIsAMiss(t *testing.T) {
	tier := &recordingTier{}
	srvA, _, _ := replica(t, tier)
	if resp, body := post(t, srvA, "/v1/plan", layoutRequest("opass")); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica A: %d %s", resp.StatusCode, body)
	}
	for k, v := range tier.data {
		tier.data[k] = []byte(strings.Replace(string(v), `"strategy":"opass-flow"`, `"strategy":"rank-static"`, 1))
	}
	srvB, regB, ranB := replica(t, tier)
	resp, body := post(t, srvB, "/v1/plan", layoutRequest("opass"))
	var plan PlanResponse
	if err := json.Unmarshal(body, &plan); resp.StatusCode != http.StatusOK || err != nil || plan.Strategy != "opass-flow" {
		t.Fatalf("replica B: %d %s (%v)", resp.StatusCode, body, err)
	}
	if ranB.Load() != 1 {
		t.Fatalf("replica B planner runs = %d, want 1", ranB.Load())
	}
	if got := metricValue(t, regB, MetricPlanCacheRemoteErrors); got != 1 {
		t.Fatalf("replica B remote errors = %v, want 1", got)
	}
}

// TestTierSeesOnlySHA256Keys: whatever reaches the server — new bodies,
// repeated ones, other bytes for a cached problem, both routes — the shared
// tier is asked only for TierKey(namespace, KeyOf(canonical, strategy, seed))
// keys, never for a process-local MAC.
func TestTierSeesOnlySHA256Keys(t *testing.T) {
	tier := &recordingTier{}
	srv, _, _ := replica(t, tier)
	want := map[string]bool{}
	var bodies []string
	for _, strategy := range []string{"opass", "rank", "random"} {
		for _, seed := range []int64{1, 2} {
			req := layoutRequest(strategy)
			req.Seed = seed
			raw, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, string(raw), string(raw), " "+string(raw))
			dreq, prob, apiErr := decodeProblemReference(httptest.NewRecorder(),
				httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(string(raw))), RequestLimits{}.withDefaults())
			if apiErr != nil {
				t.Fatal(apiErr)
			}
			as, apiErr := pickAssigner(dreq, prob)
			if apiErr != nil {
				t.Fatal(apiErr)
			}
			var seedBytes [8]byte
			binary.LittleEndian.PutUint64(seedBytes[:], uint64(seed))
			want[plancache.TierKey(DefaultRemoteTierNamespace,
				plancache.KeyOf(prob.AppendCanonical(nil), []byte(as.Name()), seedBytes[:]))] = true
		}
	}
	for _, route := range []string{"/v1/plan", "/v1/simulate"} {
		for _, body := range bodies {
			if resp, out := postRaw(t, srv, route, body); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", route, resp.StatusCode, out)
			}
		}
	}
	tier.mu.Lock()
	defer tier.mu.Unlock()
	if len(tier.gets) == 0 || len(tier.sets) != len(want) {
		t.Fatalf("%d gets and %d sets, want some gets and %d sets", len(tier.gets), len(tier.sets), len(want))
	}
	for _, key := range append(tier.gets, tier.sets...) {
		if !want[key] {
			t.Fatalf("the tier saw %q, not a TierKey of a request's fingerprint", key)
		}
	}
}

// TestTierWithoutL1: with the plan cache off and a shared tier on, the first
// /v1/plan publishes its compact 200 as the tier value, and a second such
// server adopts it without running its planner and answers the same bytes,
// compact and under ?pretty=1.
func TestTierWithoutL1(t *testing.T) {
	tier := &recordingTier{}
	raw, err := json.Marshal(layoutRequest("opass"))
	if err != nil {
		t.Fatal(err)
	}
	var compact, pretty [2][]byte
	for i := range 2 {
		srv, runs, _ := countingServer(t, ServerOptions{PlanCacheEntries: -1, RemoteTier: tier})
		resp, out := postRaw(t, srv, "/v1/plan", string(raw))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, resp.StatusCode, out)
		}
		compact[i] = out
		_, pretty[i] = postRaw(t, srv, "/v1/plan?pretty=1", string(raw))
		if want := int64(1 - i); runs.Load() != want {
			t.Fatalf("server %d ran its planner %d times, want %d", i, runs.Load(), want)
		}
	}
	if len(tier.sets) != 1 || string(tier.data[tier.sets[0]]) != string(compact[0]) {
		t.Fatalf("the tier holds %q under %q, want the first 200 %q", tier.data, tier.sets, compact[0])
	}
	if string(compact[1]) != string(compact[0]) {
		t.Fatalf("the adopted plan answers %q, want %q", compact[1], compact[0])
	}
	if !strings.Contains(string(pretty[0]), "\n  ") || string(pretty[1]) != string(pretty[0]) {
		t.Fatalf("pretty bodies %.80q and %.80q: want equal indented bodies", pretty[0], pretty[1])
	}
}
