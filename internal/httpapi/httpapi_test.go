package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

func post(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// layoutRequest builds a 4-node layout where task i's single input lives on
// nodes {i, (i+1)%4}: a full matching trivially exists.
func layoutRequest(strategy string) PlanRequest {
	req := PlanRequest{Nodes: 4, Strategy: strategy, Seed: 1}
	for i := 0; i < 8; i++ {
		req.Tasks = append(req.Tasks, TaskSpec{Inputs: []InputSpec{{
			SizeMB:   64,
			Replicas: []int{i % 4, (i + 1) % 4},
		}}})
	}
	return req
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestPlanEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()
	resp, body := post(t, srv, "/v1/plan", layoutRequest("opass"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out PlanResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "opass-flow" {
		t.Fatalf("strategy %q", out.Strategy)
	}
	if len(out.Owner) != 8 || len(out.Lists) != 4 {
		t.Fatalf("shape: %d owners, %d lists", len(out.Owner), len(out.Lists))
	}
	if out.LocalityFraction != 1.0 {
		t.Fatalf("locality %v, want 1.0 (full matching exists)", out.LocalityFraction)
	}
	// Every task owned by a process co-located with its input.
	for i, owner := range out.Owner {
		a, b := i%4, (i+1)%4
		if owner != a && owner != b {
			t.Fatalf("task %d assigned to non-co-located proc %d", i, owner)
		}
	}
}

// TestPlanStrategies: every strategy name plans, and "greedy", the retired
// heuristic's name, is served the opass plan under the name of the planner
// that ran.
func TestPlanStrategies(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()
	plans := map[string]PlanResponse{}
	for _, s := range []string{"", "opass", "rank", "random", "greedy"} {
		resp, body := post(t, srv, "/v1/plan", layoutRequest(s))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("strategy %q: status %d: %s", s, resp.StatusCode, body)
		}
		var out PlanResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		plans[s] = out
	}
	opass, greedy := plans["opass"], plans["greedy"]
	if greedy.Strategy != "opass-flow" || greedy.Strategy != opass.Strategy || !slices.Equal(greedy.Owner, opass.Owner) {
		t.Fatalf("greedy planned %q %v, opass %q %v", greedy.Strategy, greedy.Owner, opass.Strategy, opass.Owner)
	}
	resp, _ := post(t, srv, "/v1/plan", layoutRequest("bogus"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus strategy status %d", resp.StatusCode)
	}
}

func TestPlanMultiInput(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()
	req := PlanRequest{Nodes: 4, Seed: 2}
	for i := 0; i < 4; i++ {
		req.Tasks = append(req.Tasks, TaskSpec{Inputs: []InputSpec{
			{SizeMB: 30, Replicas: []int{i % 4}},
			{SizeMB: 20, Replicas: []int{(i + 1) % 4}},
		}})
	}
	for _, s := range []string{"", "greedy"} {
		req.Strategy = s
		resp, body := post(t, srv, "/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("strategy %q: status %d: %s", s, resp.StatusCode, body)
		}
		var out PlanResponse
		json.Unmarshal(body, &out)
		if out.Strategy != "opass-exact" {
			t.Fatalf("strategy %q: multi-input should route to the exact multi-data planner, got %q", s, out.Strategy)
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()
	resp, body := post(t, srv, "/v1/simulate", layoutRequest("opass"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SimulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Summary.Tasks != 8 {
		t.Fatalf("simulated %d tasks", out.Summary.Tasks)
	}
	if out.Summary.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	if out.Summary.LocalFraction != 1.0 {
		t.Fatalf("simulated locality %v", out.Summary.LocalFraction)
	}
}

func TestValidationErrors(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()
	cases := []PlanRequest{
		{Nodes: 0, Tasks: []TaskSpec{{Inputs: []InputSpec{{SizeMB: 1, Replicas: []int{0}}}}}},
		{Nodes: 4},
		{Nodes: 4, Tasks: []TaskSpec{{}}},
		{Nodes: 4, Tasks: []TaskSpec{{Inputs: []InputSpec{{SizeMB: 0, Replicas: []int{0}}}}}},
		{Nodes: 4, Tasks: []TaskSpec{{Inputs: []InputSpec{{SizeMB: 1}}}}},
		{Nodes: 4, Tasks: []TaskSpec{{Inputs: []InputSpec{{SizeMB: 1, Replicas: []int{9}}}}}},
		{Nodes: 4, Tasks: []TaskSpec{{Inputs: []InputSpec{{SizeMB: 1, Replicas: []int{1, 1}}}}}},
		{Nodes: 4, ProcNodes: []int{9}, Tasks: []TaskSpec{{Inputs: []InputSpec{{SizeMB: 1, Replicas: []int{0}}}}}},
	}
	for i, req := range cases {
		resp, body := post(t, srv, "/v1/plan", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	// Unknown fields rejected.
	resp, _ := post(t, srv, "/v1/plan", map[string]any{"nodes": 4, "bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status %d", resp.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan status %d", resp.StatusCode)
	}
}
