package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"opass/internal/engine"
	"opass/internal/telemetry"
)

// faultRequest is a layout big enough for a crash mid-run to leave a
// backlog worth replanning: 16 nodes, 64 tasks, three replicas each.
func faultRequest(strategy string) PlanRequest {
	req := PlanRequest{Nodes: 16, Strategy: strategy, Seed: 3}
	for i := 0; i < 64; i++ {
		req.Tasks = append(req.Tasks, TaskSpec{Inputs: []InputSpec{{
			SizeMB:   64,
			Replicas: []int{i % 16, (i + 5) % 16, (i + 11) % 16},
		}}})
	}
	return req
}

func TestSimulateWithFaultModel(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(ServerOptions{Registry: reg}))
	defer srv.Close()

	req := faultRequest("opass")
	req.Failures = []engine.NodeFailure{{Node: 1, At: 0.5}}
	req.Replan = true
	req.Repair = true
	req.RepairDelaySeconds = 1.0
	resp, body := post(t, srv, "/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Summary.Tasks != 64 {
		t.Fatalf("simulated %d tasks, want 64", out.Summary.Tasks)
	}
	if len(out.Summary.FailedNodes) != 1 || out.Summary.FailedNodes[0] != 1 {
		t.Fatalf("failed_nodes = %v, want [1]", out.Summary.FailedNodes)
	}
	if out.Summary.Replans == 0 {
		t.Fatal("summary reports no replans despite replan=true and a crash")
	}
	if out.Summary.RepairedChunks == 0 {
		t.Fatal("summary reports no repaired chunks despite repair=true")
	}

	// The recovery counters surface on /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(raw)
	for _, name := range []string{MetricEngineRetries, MetricEngineReplans, MetricEngineRepairedChunks} {
		if !strings.Contains(text, name) {
			t.Fatalf("metrics exposition missing %s", name)
		}
	}
}

func TestSimulateTransientFailureReportsRecovery(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()

	req := faultRequest("opass")
	req.Failures = []engine.NodeFailure{{Node: 2, At: 0.3, RecoverAt: 1.5}}
	resp, body := post(t, srv, "/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Summary.RecoveredNodes) != 1 || out.Summary.RecoveredNodes[0] != 2 {
		t.Fatalf("recovered_nodes = %v, want [2]", out.Summary.RecoveredNodes)
	}
	if out.Summary.Tasks != 64 {
		t.Fatalf("simulated %d tasks, want 64", out.Summary.Tasks)
	}
}

func TestFaultSpecValidation(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()

	cases := []func(*PlanRequest){
		func(r *PlanRequest) { r.Failures = []engine.NodeFailure{{Node: 99, At: 1}} },
		func(r *PlanRequest) { r.Failures = []engine.NodeFailure{{Node: 0, At: -1}} },
		func(r *PlanRequest) { r.Failures = []engine.NodeFailure{{Node: 0, At: 2, RecoverAt: 1}} },
		func(r *PlanRequest) {
			r.Degradations = []engine.NodeDegradation{{Node: 0, At: 1, DiskFactor: 0, NICFactor: 1}}
		},
		func(r *PlanRequest) {
			r.Degradations = []engine.NodeDegradation{{Node: 0, At: 1, DiskFactor: 0.5, NICFactor: 1.5}}
		},
		func(r *PlanRequest) {
			r.Degradations = []engine.NodeDegradation{{Node: 0, At: 2, Until: 1, DiskFactor: 0.5, NICFactor: 0.5}}
		},
		func(r *PlanRequest) {
			r.Degradations = []engine.NodeDegradation{{Node: 99, At: 1, DiskFactor: 0.5, NICFactor: 0.5}}
		},
		func(r *PlanRequest) { r.RepairDelaySeconds = -1 },
	}
	for i, mutate := range cases {
		req := faultRequest("opass")
		mutate(&req)
		resp, body := post(t, srv, "/v1/simulate", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400: %s", i, resp.StatusCode, body)
		}
	}
}

// The fault model is simulate-only: /v1/plan accepts the fields but the
// plan it returns is computed from the layout as given.
func TestPlanIgnoresFaultModel(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()

	plain, body := post(t, srv, "/v1/plan", faultRequest("opass"))
	if plain.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", plain.StatusCode, body)
	}
	var base PlanResponse
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatal(err)
	}

	req := faultRequest("opass")
	req.Failures = []engine.NodeFailure{{Node: 1, At: 0.5}}
	req.Replan = true
	resp, body := post(t, srv, "/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var faulted PlanResponse
	if err := json.Unmarshal(body, &faulted); err != nil {
		t.Fatal(err)
	}
	if len(faulted.Owner) != len(base.Owner) {
		t.Fatalf("plan shape changed: %d vs %d owners", len(faulted.Owner), len(base.Owner))
	}
	for i := range base.Owner {
		if faulted.Owner[i] != base.Owner[i] {
			t.Fatalf("owner[%d] differs (%d vs %d): fault fields leaked into planning", i, faulted.Owner[i], base.Owner[i])
		}
	}
}

// TestSimulateDeltaReplanMetric: replanning after a crash runs the
// incremental path by default, and the tasks it re-matches surface on the
// delta counter — strictly fewer than the whole job, proving the replan
// was surgical rather than a full backlog re-match.
func TestSimulateDeltaReplanMetric(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewServer(ServerOptions{Registry: reg}))
	defer srv.Close()

	req := faultRequest("opass")
	req.Failures = []engine.NodeFailure{{Node: 1, At: 0.5}}
	req.Replan = true
	resp, body := post(t, srv, "/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Summary.Replans == 0 {
		t.Fatal("summary reports no replans despite replan=true and a crash")
	}
	delta := metricValue(t, reg, MetricEngineDeltaReplanned)
	if delta <= 0 {
		t.Fatalf("%s = %v, want > 0", MetricEngineDeltaReplanned, delta)
	}
	if delta >= float64(len(req.Tasks)) {
		t.Fatalf("%s = %v, want fewer than the %d-task job", MetricEngineDeltaReplanned, delta, len(req.Tasks))
	}
}

// TestSimulateSummaryGolden pins the bytes of the `summary` object — field
// names, order and omitempty behaviour — for one run that populates every
// fault counter: a permanent crash, a transient one, replan and repair.
// To accept an intended change delete the golden file and run once.
func TestSimulateSummaryGolden(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()

	req := faultRequest("opass")
	req.Failures = []engine.NodeFailure{
		{Node: 1, At: 0.5},
		{Node: 2, At: 0.3, RecoverAt: 1.5},
	}
	req.Replan = true
	req.Repair = true
	req.RepairDelaySeconds = 1.0
	resp, body := post(t, srv, "/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Summary json.RawMessage `json:"summary"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/simulate_summary.golden"
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, out.Summary, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("no golden file; wrote %s — review it and re-run", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Summary, want) {
		t.Fatalf("summary differs from %s\n--- got\n%s\n--- want\n%s", path, out.Summary, want)
	}
}
