package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/telemetry"
)

// decodeProblemReference is the differential oracle for decodeProblem: one
// encoding/json Decode of the whole body into PlanRequest, then the same
// checks over the materialized structs. It must accept and reject exactly
// what the streaming decoder does, and build the same problem.
func decodeProblemReference(w http.ResponseWriter, r *http.Request, lim RequestLimits) (*PlanRequest, *core.Problem, *apiError) {
	req := &PlanRequest{}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, lim.BodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, nil, decodeFailure(err)
	}
	switch {
	case req.Nodes <= 0 || len(req.Tasks) == 0:
		return nil, nil, badRequest("invalid", "nodes must be positive and tasks non-empty")
	case req.Nodes > lim.Nodes:
		return nil, nil, badRequest("invalid", "nodes %d exceeds maximum %d", req.Nodes, lim.Nodes)
	case len(req.Tasks) > lim.Tasks:
		return nil, nil, badRequest("too_many_tasks", "more than maximum %d tasks", lim.Tasks)
	}
	if apiErr := validateFaults(req); apiErr != nil {
		return nil, nil, apiErr
	}
	procNodes, apiErr := resolveProcNodes(req, lim)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	var sizes []float64
	var replicas [][]int
	prob := &core.Problem{ProcNode: procNodes, Tasks: make([]core.Task, len(req.Tasks))}
	for ti, task := range req.Tasks {
		if len(task.Inputs) > lim.InputsPerTask {
			return nil, nil, badRequest("too_many_inputs", "task %d: more than maximum %d inputs per task", ti, lim.InputsPerTask)
		}
		prob.Tasks[ti].ID = ti
		for _, in := range task.Inputs {
			seen := map[int]bool{}
			for _, rep := range in.Replicas {
				if rep < 0 || rep >= req.Nodes || seen[rep] {
					return nil, nil, badRequest("invalid", "task %d: replica node %d outside cluster or repeated", ti, rep)
				}
				seen[rep] = true
			}
			if in.SizeMB <= 0 || len(in.Replicas) == 0 {
				return nil, nil, badRequest("invalid", "task %d: input needs a positive size_mb and a replica", ti)
			}
			prob.Tasks[ti].Inputs = append(prob.Tasks[ti].Inputs, core.Input{Chunk: dfs.ChunkID(len(sizes)), SizeMB: in.SizeMB})
			sizes, replicas = append(sizes, in.SizeMB), append(replicas, in.Replicas)
		}
		if len(task.Inputs) == 0 {
			return nil, nil, badRequest("invalid", "task %d has no inputs", ti)
		}
	}
	prob.FS = dfs.New(layoutView{req.Nodes}, dfs.Config{Replication: 1})
	if _, err := prob.FS.CreateChunksReplicated("/layout/tasks", sizes, replicas); err != nil {
		return nil, nil, &apiError{status: http.StatusInternalServerError, reason: "internal", err: err}
	}
	if err := prob.Validate(); err != nil {
		return nil, nil, badRequest("invalid", "%w", err)
	}
	req.weight = int64(len(req.Tasks) + len(sizes))
	return req, prob, nil
}

// bothPaths runs fn against a server using the streaming decoder and one
// using the reference decoder, proving the two accept and reject
// identically.
func bothPaths(t *testing.T, opts ServerOptions, fn func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry)) {
	t.Helper()
	for _, mode := range []struct {
		name   string
		legacy bool
	}{{"streaming", false}, {"legacy", true}} {
		t.Run(mode.name, func(t *testing.T) {
			o := opts
			reg := telemetry.NewRegistry()
			o.Registry = reg
			s := NewServer(o)
			if mode.legacy {
				s.decode = decodeProblemReference
			}
			srv := httptest.NewServer(s)
			defer srv.Close()
			fn(t, srv, reg)
		})
	}
}

// nTaskRequest builds a 4-node request with the given task/input shape.
func nTaskRequest(tasks, inputsPerTask int) PlanRequest {
	req := PlanRequest{Nodes: 4, Seed: 3}
	for i := 0; i < tasks; i++ {
		var ins []InputSpec
		for j := 0; j < inputsPerTask; j++ {
			ins = append(ins, InputSpec{SizeMB: 8, Replicas: []int{(i + j) % 4}})
		}
		req.Tasks = append(req.Tasks, TaskSpec{Inputs: ins})
	}
	return req
}

// rejection asserts a 400/413 with the right reason bucket and message
// fragment.
func rejection(t *testing.T, reg *telemetry.Registry, resp *http.Response, body []byte, status int, reason, fragment string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d: %.200s", resp.StatusCode, status, body)
	}
	if !strings.Contains(string(body), fragment) {
		t.Fatalf("body %.200q lacks %q", body, fragment)
	}
	if got := metricValue(t, reg, MetricRequestsRejected, fmt.Sprintf("reason=%q", reason)); got != 1 {
		t.Fatalf("rejection counter[%s] = %v, want 1", reason, got)
	}
}

// TestTaskLimitBoundary: exactly the task cap is accepted; one past is
// rejected in the too_many_tasks bucket — on both decode paths.
func TestTaskLimitBoundary(t *testing.T) {
	bothPaths(t, ServerOptions{Limits: RequestLimits{Tasks: 4}}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		resp, body := post(t, srv, "/v1/plan", nTaskRequest(4, 1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("at-limit request rejected: %d %.200s", resp.StatusCode, body)
		}
		resp, body = post(t, srv, "/v1/plan", nTaskRequest(5, 1))
		rejection(t, reg, resp, body, http.StatusBadRequest, "too_many_tasks", "maximum")
	})
}

// TestInputLimitBoundary: exactly the per-task input cap is accepted; one
// past is rejected in the too_many_inputs bucket — on both decode paths.
func TestInputLimitBoundary(t *testing.T) {
	bothPaths(t, ServerOptions{Limits: RequestLimits{InputsPerTask: 3}}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		resp, body := post(t, srv, "/v1/plan", nTaskRequest(2, 3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("at-limit request rejected: %d %.200s", resp.StatusCode, body)
		}
		resp, body = post(t, srv, "/v1/plan", nTaskRequest(2, 4))
		rejection(t, reg, resp, body, http.StatusBadRequest, "too_many_inputs", "per task")
	})
}

// TestBodyLimitBoundary: a body of exactly the byte cap is accepted; one
// byte past is rejected with 413 in the too_large bucket — on both paths.
func TestBodyLimitBoundary(t *testing.T) {
	raw, err := json.Marshal(nTaskRequest(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	exact := int64(len(raw))
	bothPaths(t, ServerOptions{Limits: RequestLimits{BodyBytes: exact}}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exact-size body rejected: %d", resp.StatusCode)
		}
	})
	bothPaths(t, ServerOptions{Limits: RequestLimits{BodyBytes: exact - 1}}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		resp, body := post(t, srv, "/v1/plan", nTaskRequest(4, 1))
		rejection(t, reg, resp, body, http.StatusRequestEntityTooLarge, "too_large", "exceeds")
		if !resp.Close && resp.Header.Get("Connection") != "close" {
			t.Error("oversized-body response does not close the connection")
		}
	})
}

// TestNodesProcsLimitBoundary: the node and process caps hold on both
// paths, at the boundary and one past it.
func TestNodesProcsLimitBoundary(t *testing.T) {
	bothPaths(t, ServerOptions{Limits: RequestLimits{Nodes: 8, Procs: 4}}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		req := nTaskRequest(2, 1)
		req.Nodes = 8
		req.ProcNodes = []int{0, 1, 2, 3}
		resp, body := post(t, srv, "/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("at-limit nodes/procs rejected: %d %.200s", resp.StatusCode, body)
		}
		req.Nodes = 9
		resp, body = post(t, srv, "/v1/plan", req)
		rejection(t, reg, resp, body, http.StatusBadRequest, "invalid", "nodes 9 exceeds maximum 8")
		req.Nodes = 8
		req.ProcNodes = []int{0, 1, 2, 3, 0}
		resp, body = post(t, srv, "/v1/plan", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("over-limit proc_nodes status %d: %.200s", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "proc_nodes") || !strings.Contains(string(body), "maximum") {
			t.Fatalf("over-limit proc_nodes body %.200q lacks a specific message", body)
		}
	})
}

// TestStreamingFieldOrder: the streaming decoder must accept tasks arriving
// before nodes/proc_nodes (JSON key order is not guaranteed) and still
// apply node-dependent validation correctly.
func TestStreamingFieldOrder(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()
	body := `{"tasks": [
		{"inputs": [{"size_mb": 16, "replicas": [0]}]},
		{"inputs": [{"size_mb": 16, "replicas": [1]}]},
		{"inputs": [{"size_mb": 16, "replicas": [2]}]}
	], "seed": 5, "proc_nodes": [0, 1, 2], "nodes": 3}`
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tasks-first request rejected: %d", resp.StatusCode)
	}
	var out PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Owner) != 3 || out.LocalityFraction != 1.0 {
		t.Fatalf("plan = %+v, want 3 fully local tasks", out)
	}

	// Node-dependent validation still fires when nodes arrives last.
	bad := `{"tasks": [{"inputs": [{"size_mb": 16, "replicas": [7]}]}], "nodes": 3}`
	resp2, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp2.Body)
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "task 0 input 0") {
		t.Fatalf("out-of-range replica after reorder: %d %s", resp2.StatusCode, buf)
	}
}

// TestStreamingUnknownFields: unknown keys are rejected at the top level
// and inside nested task/input objects, matching the reference decoder's
// DisallowUnknownFields behavior.
func TestStreamingUnknownFields(t *testing.T) {
	bothPaths(t, ServerOptions{}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		for _, body := range []string{
			`{"nodes": 4, "bogus": 1, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
			`{"nodes": 4, "tasks": [{"bogus": 1, "inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
			`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0], "bogus": 1}]}]}`,
		} {
			resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("unknown field accepted (%d): %s", resp.StatusCode, body)
			}
		}
	})
}

// TestStreamingLegacyPlanParity: the same mixed-shape request produces the
// same plan through the streaming decoder and the reference decoder — same
// problem, byte-identical assignment.
func TestStreamingLegacyPlanParity(t *testing.T) {
	req := PlanRequest{Nodes: 6, Seed: 11, ProcNodes: []int{0, 1, 2, 3, 4, 5, 0, 3}}
	for i := 0; i < 24; i++ {
		ins := []InputSpec{{SizeMB: float64(8 + i%5), Replicas: []int{i % 6, (i + 2) % 6}}}
		if i%3 == 0 {
			ins = append(ins, InputSpec{SizeMB: 4, Replicas: []int{(i + 4) % 6}})
		}
		req.Tasks = append(req.Tasks, TaskSpec{Inputs: ins})
	}
	var got [2]PlanResponse
	for i, legacy := range []bool{false, true} {
		s := NewServer(ServerOptions{})
		if legacy {
			s.decode = decodeProblemReference
		}
		srv := httptest.NewServer(s)
		resp, body := post(t, srv, "/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("legacy=%v: status %d: %.300s", legacy, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &got[i]); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
	if got[0].Strategy != got[1].Strategy ||
		fmt.Sprint(got[0].Owner) != fmt.Sprint(got[1].Owner) ||
		fmt.Sprint(got[0].Lists) != fmt.Sprint(got[1].Lists) ||
		got[0].LocalityFraction != got[1].LocalityFraction {
		t.Fatalf("decode paths disagree:\nstreaming: %+v\nlegacy:    %+v", got[0], got[1])
	}
}

// TestStreamingValidationParity: malformed requests (the
// TestValidationErrors table plus fault-spec shapes) are rejected by the
// streaming decoder and the reference decoder alike.
func TestStreamingValidationParity(t *testing.T) {
	cases := []string{
		`{"nodes": 0, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
		`{"nodes": 4}`,
		`{"nodes": 4, "tasks": []}`,
		`{"nodes": 4, "tasks": [{}]}`,
		`{"nodes": 4, "tasks": [{"inputs": []}]}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 0, "replicas": [0]}]}]}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1}]}]}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [9]}]}]}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [1, 1]}]}]}`,
		`{"nodes": 4, "proc_nodes": [9], "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
		`{"nodes": 4, "failures": [{"node": 9, "at_seconds": 1}], "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
		`{"nodes": 4, "repair_delay_seconds": -1, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
		`not json`,
		`[1, 2]`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}], "tasks": []}`,
	}
	bothPaths(t, ServerOptions{}, func(t *testing.T, srv *httptest.Server, _ *telemetry.Registry) {
		for i, body := range cases {
			resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("case %d: status %d, want 400: %s", i, resp.StatusCode, body)
			}
		}
	})
}

// TestCompactJSONAndPretty: responses are compact by default; ?pretty=1
// opts into indented output.
func TestCompactJSONAndPretty(t *testing.T) {
	srv := httptest.NewServer(NewServer(ServerOptions{}))
	defer srv.Close()
	_, body := post(t, srv, "/v1/plan", layoutRequest("opass"))
	if bytes.Contains(bytes.TrimRight(body, "\n"), []byte("\n")) {
		t.Fatalf("default response is not compact: %.200q", body)
	}
	_, body = post(t, srv, "/v1/plan?pretty=1", layoutRequest("opass"))
	if !bytes.Contains(body, []byte("\n  ")) {
		t.Fatalf("?pretty=1 response is not indented: %.200q", body)
	}
}
