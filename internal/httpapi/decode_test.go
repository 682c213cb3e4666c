package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
	"opass/internal/telemetry"
)

// decodeProblemReference is the differential oracle for decodeProblem: one
// encoding/json Decode of the whole body into PlanRequest, then the same
// checks over the materialized structs. It must accept and reject exactly
// what the scanner does, and build the same problem. encoding/json alone is
// laxer than the request grammar, so strictBody runs first.
func decodeProblemReference(w http.ResponseWriter, r *http.Request, lim RequestLimits) (*PlanRequest, *core.Problem, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, lim.BodyBytes))
	if err != nil {
		return nil, nil, decodeFailure(err)
	}
	if err := strictBody(body); err != nil {
		return nil, nil, decodeFailure(err)
	}
	req := &PlanRequest{}
	dec := json.NewDecoder(bytes.NewReader(body))
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
	if err := engine.ValidateFaults(req.Nodes, req.Failures, req.Degradations, req.RepairDelaySeconds); err != nil {
		return nil, nil, badRequest("invalid", "%w", err)
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
			if in.SizeMB <= 0 || in.SizeMB > 1<<40 || len(in.Replicas) == 0 {
				return nil, nil, badRequest("invalid", "task %d: input needs a size_mb in (0, 2^40] and a replica", ti)
			}
			prob.Tasks[ti].Inputs = append(prob.Tasks[ti].Inputs, core.Input{Chunk: dfs.ChunkID(len(sizes)), SizeMB: in.SizeMB})
			sizes, replicas = append(sizes, in.SizeMB), append(replicas, in.Replicas)
		}
		if len(task.Inputs) == 0 {
			return nil, nil, badRequest("invalid", "task %d has no inputs", ti)
		}
	}
	fs := dfs.New(fsView{req.Nodes}, dfs.Config{Replication: 1})
	if _, err := fs.CreateChunksReplicated("/layout/tasks", sizes, replicas); err != nil {
		return nil, nil, &apiError{status: http.StatusInternalServerError, reason: "internal", err: err}
	}
	prob.FS = fs
	if err := prob.Validate(); err != nil {
		return nil, nil, badRequest("invalid", "%w", err)
	}
	req.weight = int64(len(req.Tasks) + len(sizes))
	return req, prob, nil
}

// strictBody rejects the bodies encoding/json would take but the request
// grammar does not. Each check is one divergence class of TestDecodeGrammar:
// escapes and non-ASCII bytes (which only a string can hold), keys that are
// not lower case (encoding/json folds case; every field name is lower case),
// a key repeated within one object, null as an array element (it would
// decode to a zero element), and anything but whitespace after the value.
func strictBody(body []byte) error {
	for _, c := range body {
		if c == '\\' || c >= 0x80 {
			return errors.New("escape or non-ASCII byte")
		}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := strictValue(dec, false); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the request object")
	}
	return nil
}

func strictValue(dec *json.Decoder, inArray bool) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	switch tok {
	case json.Delim('{'):
		keys := map[string]bool{}
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return err
			}
			key := tok.(string)
			if keys[key] || key != strings.ToLower(key) {
				return fmt.Errorf("key %q repeated or not lower case", key)
			}
			keys[key] = true
			if err := strictValue(dec, false); err != nil {
				return err
			}
		}
		_, err = dec.Token()
	case json.Delim('['):
		for dec.More() {
			if err := strictValue(dec, true); err != nil {
				return err
			}
		}
		_, err = dec.Token()
	case nil:
		if inArray {
			return errors.New("null array element")
		}
	}
	return err
}

// bothPaths runs fn against a server using the scanner ("streaming") and one
// using the reference decoder ("legacy"), proving the two accept and reject
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
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [1, 3, 1]}]}]}`,
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

// benchBody renders a request the way bench/ does: compact JSON, one process
// per node, every task with the same input sizes and three distinct uniform
// replicas per input; faults adds the simulate-faults workload's fault model.
func benchBody(nodes, tasks int, sizes []float64, faults bool, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := fmt.Appendf(nil, `{"nodes":%d,"seed":%d`, nodes, rng.Int63n(1<<31))
	if faults {
		b = fmt.Appendf(b, `,"failures":[{"node":%d,"at_seconds":3}],"degradations":[{"node":%d,"at_seconds":1,"disk_factor":0.5,"nic_factor":0.5}],"replan":true,"repair":true,"repair_delay_seconds":2`,
			rng.Intn(nodes), rng.Intn(nodes))
	}
	b = append(b, `,"tasks":[`...)
	for t := 0; t < tasks; t++ {
		if t > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"inputs":[`...)
		for i, size := range sizes {
			if i > 0 {
				b = append(b, ',')
			}
			p := rng.Perm(nodes)
			b = fmt.Appendf(b, `{"size_mb":%v,"replicas":[%d,%d,%d]}`, size, p[0], p[1], p[2])
		}
		b = append(b, `]}`...)
	}
	return append(b, `]}`...)
}

// benchShapes are the bodies of the three bench/ plan workloads that differ in
// shape (256 processes each).
var benchShapes = []struct {
	name  string
	tasks int
	sizes []float64
}{
	{"paper-single", 2560, []float64{64}},
	{"paper-multi", 2560, []float64{30, 20, 10}},
	{"fleet-bulk", 25600, []float64{64}},
}

// BenchmarkDecodeProblem times the decoder alone (scan, validation, carving
// the problem) over benchShapes, plus the paper-single body indented by
// json.Indent: whitespace inside every array and after every colon keeps the
// lexer off its compact fast paths, so that row's MB/s is the general path's.
func BenchmarkDecodeProblem(b *testing.B) {
	lim := RequestLimits{}.withDefaults()
	type row struct {
		name string
		body []byte
	}
	var rows []row
	for _, w := range benchShapes {
		rows = append(rows, row{w.name, benchBody(256, w.tasks, w.sizes, false, 1)})
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, rows[0].body, "", "  "); err != nil {
		b.Fatal(err)
	}
	rows = append(rows, row{rows[0].name + "-indented", indented.Bytes()})
	for _, w := range rows {
		body := w.body
		b.Run(w.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
				req, _, apiErr := decodeProblem(httptest.NewRecorder(), r, lim)
				if apiErr != nil {
					b.Fatal(apiErr)
				}
				req.release() // or the next iteration pulls a cold lexer
			}
		})
	}
}

// decodeAllocsBudget is what decoding a bench body into a warm lexer
// allocates: the request, the problem, its layout header and the default
// process list — none per token, task, input or node checked, since the
// problem borrows the lexer's arrays and the replica check runs in place
// (BenchmarkDecodeProblem's allocs/op also count its request, recorder and
// pooled lexer). decodeBytesBudget bounds their size: the process list holds
// one word per node.
const (
	decodeAllocsBudget = 4
	decodeBytesBudget  = 8 << 10
)

// TestDecodeAllocatesNoMoreObjects: a warm lexer decodes each bench body in
// at most decodeAllocsBudget allocations and decodeBytesBudget bytes, whatever
// the number of tasks. Skipped under -race, like the other allocation
// clauses.
func TestDecodeAllocatesNoMoreObjects(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation clauses run without the race detector")
	}
	lim := RequestLimits{}.withDefaults()
	for _, w := range benchShapes {
		t.Run(w.name, func(t *testing.T) {
			body := benchBody(256, w.tasks, w.sizes, false, 1)
			lx := &lexer{buf: make([]byte, windowSize)}
			rd := bytes.NewReader(nil)
			decode := func() {
				rd.Reset(body)
				lx.reset(rd)
				if _, _, apiErr := decodeRequest(lx, lim); apiErr != nil {
					t.Fatal(apiErr)
				}
			}
			decode() // grows the accumulators to the body
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(20, decode) // 21 runs: AllocsPerRun warms up once
			runtime.ReadMemStats(&after)
			bytesPerRun := (after.TotalAlloc - before.TotalAlloc) / 21
			t.Logf("%s decode: %.0f allocs, %d B (budget %d, %d B)", w.name, allocs, bytesPerRun, decodeAllocsBudget, decodeBytesBudget)
			if allocs > decodeAllocsBudget || bytesPerRun > decodeBytesBudget {
				t.Fatalf("decoding %s allocated %.0f objects, %d B; budget %d, %d B",
					w.name, allocs, bytesPerRun, decodeAllocsBudget, decodeBytesBudget)
			}
		})
	}
}

// discardResponse is a ResponseWriter that keeps the status and drops the
// body, so BenchmarkPlanRequest's B/op is the handler's, not a recorder's.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkPlanRequest times the whole /v1/plan handler — middleware, decode,
// admission, fingerprint or planner, encode — over benchShapes with the plan
// cache off, plus two cache hits on the paper-single body: the repeated body
// (an aliased hit: read, hash, write) and the same problem in other bytes (a
// canonical hit: decode, fingerprint, encode, store the new alias).
func BenchmarkPlanRequest(b *testing.B) {
	serve := func(b *testing.B, s *Server, body []byte) {
		w := &discardResponse{header: http.Header{}}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	// vary, when set, gives the body of iteration i.
	run := func(name string, opts ServerOptions, body []byte, vary func(i int) []byte) {
		b.Run(name, func(b *testing.B) {
			s := NewServer(opts)
			serve(b, s, body) // fills the cache when it is on
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vary != nil {
					body = vary(i)
				}
				serve(b, s, body)
			}
		})
	}
	for _, w := range benchShapes {
		run(w.name, ServerOptions{PlanCacheEntries: -1}, benchBody(256, w.tasks, w.sizes, false, 1), nil)
	}
	single := benchBody(256, 2560, []float64{64}, false, 1)
	run("cache-hit", ServerOptions{}, single, nil)
	// Each iteration leads with 24 bytes of whitespace spelling its number in
	// spaces and tabs, so no body repeats and none is aliased.
	const lead = 24
	varied := append(make([]byte, lead), single...)
	run("cache-hit-canonical", ServerOptions{}, single, func(i int) []byte {
		for k := range lead {
			varied[k] = " \t"[i>>k&1]
		}
		return varied
	})
}

// BenchmarkSimulateRequest times the whole /v1/simulate handler — decode,
// mirror file system, plan, engine, summary — over the bench's
// simulate-faults bodies (128 processes x 1,280 tasks, a crash, a slow node,
// replan and repair), one of 32 seeds per iteration, with the plan cache off.
func BenchmarkSimulateRequest(b *testing.B) {
	bodies := make([][]byte, 32)
	for i := range bodies {
		bodies[i] = benchBody(128, 1280, []float64{64}, true, int64(i+1))
	}
	s := NewServer(ServerOptions{PlanCacheEntries: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &discardResponse{header: http.Header{}}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(bodies[i%len(bodies)])))
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// oneTask is the smallest valid task list, for rows that vary something else.
const oneTask = `"tasks":[{"inputs":[{"size_mb":1,"replicas":[0]}]}]`

// staleFieldBodies each follow a fully populated task with one that omits a
// field. A decoder that reuses one TaskSpec across tasks lets the earlier
// task's values stand in for the omitted ones and plans over data the client
// never sent.
var staleFieldBodies = []string{
	`{"nodes":4,"tasks":[{"inputs":[{"size_mb":64,"replicas":[1]}]},{"inputs":[{"replicas":[2]}]}]}`,
	`{"nodes":4,"tasks":[{"inputs":[{"size_mb":64,"replicas":[1]}]},{"inputs":[{"size_mb":64}]}]}`,
	`{"nodes":4,"tasks":[{"inputs":[{"size_mb":64,"replicas":[1]}]},{"inputs":[null]}]}`,
}

// TestDecodeNoStaleFields: a field the client omitted is absent, whatever an
// earlier task carried.
func TestDecodeNoStaleFields(t *testing.T) {
	for _, body := range staleFieldBodies {
		bothPaths(t, ServerOptions{}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
			resp, out := postRaw(t, srv, "/v1/plan", body)
			rejection(t, reg, resp, out, http.StatusBadRequest, "invalid", "")
		})
	}
}

// grammarRows pins the accepted request grammar, one row per class. The
// classes marked (strictBody) are those where encoding/json alone would
// answer differently and the reference decoder relies on its pre-check.
var grammarRows = []struct {
	class, body string
	status      int
}{
	{"baseline", `{"nodes":4,` + oneTask + `}`, 200},
	{"whitespace anywhere", " {\n\t\"nodes\" : 4 ,\r\n \"tasks\" : [ { \"inputs\" : [ { \"size_mb\" : 1 , \"replicas\" : [ 0 , 1 ] } ] } ] } \n", 200},
	{"integer literal for a float field", `{"nodes":4,"repair_delay_seconds":2,` + oneTask + `}`, 200},
	{"fraction and exponent for a float field", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":0.25e1,"replicas":[0]}]}]}`, 200},
	{"key case, top level (strictBody)", `{"Nodes":4,` + oneTask + `}`, 400},
	{"key case, task (strictBody)", `{"nodes":4,"tasks":[{"Inputs":[{"size_mb":1,"replicas":[0]}]}]}`, 400},
	{"key case, input (strictBody)", `{"nodes":4,"tasks":[{"inputs":[{"SIZE_MB":1,"replicas":[0]}]}]}`, 400},
	{"duplicate key, top level (strictBody)", `{"nodes":4,"nodes":4,` + oneTask + `}`, 400},
	{"duplicate key, task (strictBody)", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1,"replicas":[0]}],"inputs":[]}]}`, 400},
	{"duplicate key, input (strictBody)", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1,"size_mb":1,"replicas":[0]}]}]}`, 400},
	{"duplicate key, failure (strictBody)", `{"nodes":4,"failures":[{"node":1,"node":1,"at_seconds":1}],` + oneTask + `}`, 400},
	{"trailing garbage (strictBody)", `{"nodes":4,` + oneTask + `}garbage`, 400},
	{"trailing second object (strictBody)", `{"nodes":4,` + oneTask + `} {}`, 400},
	{"fraction for an integer field", `{"nodes":4.0,` + oneTask + `}`, 400},
	{"exponent for an integer field", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1,"replicas":[1e0]}]}]}`, 400},
	{"integer overflow", `{"nodes":4,"seed":9223372036854775808,` + oneTask + `}`, 400},
	{"leading zero", `{"nodes":04,` + oneTask + `}`, 400},
	{"leading plus", `{"nodes":+4,` + oneTask + `}`, 400},
	{"bare fraction", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":.5,"replicas":[0]}]}]}`, 400},
	{"float out of range", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1e999,"replicas":[0]}]}]}`, 400},
	{"string for a number", `{"nodes":"4",` + oneTask + `}`, 400},
	{"number for a string", `{"nodes":4,"strategy":7,` + oneTask + `}`, 400},
	{"number for a bool", `{"nodes":4,"replan":1,` + oneTask + `}`, 400},
	{"null scalar is absent", `{"nodes":4,"seed":null,"strategy":null,"replan":null,` + oneTask + `}`, 200},
	{"null proc_nodes is absent", `{"nodes":4,"proc_nodes":null,` + oneTask + `}`, 200},
	{"null failures is absent", `{"nodes":4,"failures":null,"degradations":null,` + oneTask + `}`, 200},
	{"null nodes is absent", `{"nodes":null,` + oneTask + `}`, 400},
	{"null tasks is absent", `{"nodes":4,"tasks":null}`, 400},
	{"null inputs is absent", `{"nodes":4,"tasks":[{"inputs":null}]}`, 400},
	{"null replicas is absent", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1,"replicas":null}]}]}`, 400},
	{"null replica element (strictBody)", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1,"replicas":[null]}]}]}`, 400},
	{"null proc_nodes element (strictBody)", `{"nodes":4,"proc_nodes":[null],` + oneTask + `}`, 400},
	{"null failure element (strictBody)", `{"nodes":4,"failures":[null],` + oneTask + `}`, 400},
	{"escape in a value (strictBody)", `{"nodes":4,"strategy":"op\u0061ss",` + oneTask + `}`, 400},
	{"escape in a key (strictBody)", `{"no\u0064es":4,` + oneTask + `}`, 400},
	{"non-ASCII string (strictBody)", `{"nodes":4,"strategy":"opäss",` + oneTask + `}`, 400},
	{"control byte in a string", "{\"nodes\":4,\"strategy\":\"op\tass\"," + oneTask + "}", 400},
	{"trailing comma, object", `{"nodes":4,` + oneTask + `,}`, 400},
	{"trailing comma, array", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1,"replicas":[0,]}]}]}`, 400},
	{"missing comma", `{"nodes":4 ` + oneTask + `}`, 400},
	{"object for an array", `{"nodes":4,"tasks":{}}`, 400},
	{"truncated", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1,"repl`, 400},
	{"empty body", ``, 400},
	{"finite sizes whose sum overflows", `{"nodes":2,"tasks":[{"inputs":[{"size_mb":1e308,"replicas":[0]}]},{"inputs":[{"size_mb":1e308,"replicas":[1]}]}]}`, 400},
	{"size of exactly 2^40 MB", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1099511627776,"replicas":[0]}]}]}`, 200},
	{"size above 2^40 MB", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1099511627777,"replicas":[0]}]}]}`, 400},
}

// TestDecodeGrammar: both decoders give every row the same answer on both
// routes, and every rejection lands in the "invalid" bucket.
func TestDecodeGrammar(t *testing.T) {
	for _, row := range grammarRows {
		t.Run(row.class, func(t *testing.T) {
			bothPaths(t, ServerOptions{}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
				for i, route := range []string{"/v1/plan", "/v1/simulate"} {
					resp, out := postRaw(t, srv, route, row.body)
					if resp.StatusCode != row.status {
						t.Fatalf("%s: status %d, want %d: %.200s", route, resp.StatusCode, row.status, out)
					}
					if row.status == http.StatusOK {
						continue
					}
					if got := metricValue(t, reg, MetricRequestsRejected, `reason="invalid"`); got != float64(i+1) {
						t.Fatalf("%s: rejection counter[invalid] = %v, want %d", route, got, i+1)
					}
				}
			})
		})
	}
}

// postRaw posts a literal body to route.
func postRaw(t *testing.T, srv *httptest.Server, route, body string) (*http.Response, []byte) {
	t.Helper()
	return postReader(t, srv, route, strings.NewReader(body))
}

// decodeOutcome is what a decoder made of one body, in comparable form.
type decodeOutcome struct {
	req    *PlanRequest
	canon  []byte // Problem.AppendCanonical, nil on rejection
	status int
	reason string
	err    error
}

func outcomeOf(req *PlanRequest, prob *core.Problem, apiErr *apiError) decodeOutcome {
	if apiErr != nil {
		return decodeOutcome{status: apiErr.status, reason: apiErr.reason, err: apiErr}
	}
	defer req.release() // the canonical bytes are all the outcome keeps of the problem
	return decodeOutcome{req: req, canon: prob.AppendCanonical(nil), status: http.StatusOK}
}

// same reports how two outcomes differ, or "". capBuckets relaxes the reason
// comparison for a body with two defects: the scanner reports the first in
// document order, the reference the first in its own check order, so one may
// name a cap where the other says "invalid". The Boundary tests pin each cap
// bucket one defect at a time.
func (a decodeOutcome) same(b decodeOutcome) string {
	switch {
	case a.status != b.status:
		return fmt.Sprintf("status %d (%v) vs %d (%v)", a.status, a.err, b.status, b.err)
	case a.status != http.StatusOK:
		if a.reason != b.reason && a.reason != "invalid" && b.reason != "invalid" {
			return fmt.Sprintf("reason %s (%v) vs %s (%v)", a.reason, a.err, b.reason, b.err)
		}
		return ""
	case !bytes.Equal(a.canon, b.canon):
		return "canonical problem encodings differ"
	}
	x, y := a.req, b.req
	if x.Nodes != y.Nodes || x.Seed != y.Seed || x.Strategy != y.Strategy || x.Replan != y.Replan ||
		x.Repair != y.Repair || x.RepairDelaySeconds != y.RepairDelaySeconds || x.weight != y.weight ||
		!slices.Equal(x.ProcNodes, y.ProcNodes) || !slices.Equal(x.Failures, y.Failures) ||
		!slices.Equal(x.Degradations, y.Degradations) {
		return fmt.Sprintf("requests differ: %+v vs %+v", *x, *y)
	}
	return ""
}

// identical is same without its relaxation, for two runs of one decoder:
// the same reason bucket and the same error message too.
func (a decodeOutcome) identical(b decodeOutcome) string {
	if a.reason != b.reason || fmt.Sprint(a.err) != fmt.Sprint(b.err) {
		return fmt.Sprintf("%s (%v) vs %s (%v)", a.reason, a.err, b.reason, b.err)
	}
	return a.same(b)
}

// compactInput and compactTaskOf write an input and a task the way
// encoding/json writes an InputSpec and a TaskSpec.
func compactInput(size, replicas string) string {
	return `{"size_mb":` + size + `,"replicas":[` + replicas + `]}`
}

func compactTaskOf(inputs ...string) string {
	return `{"inputs":[` + strings.Join(inputs, ",") + `]}`
}

// compactTaskInputs is the inputs cap the compactTask tests run under, the
// same as FuzzDecode's and waysOutLimits'.
const compactTaskInputs = 3

// compactTaskRefusals are tasks one deviation away from the shape
// compactTask takes whole: whitespace at every offset of a compact task, the
// other key order, a repeated key, signs, fractions, exponents, leading
// zeros and over-long runs in either number, a zero size, empty or
// malformed replica arrays, no inputs, one input past compactTaskInputs, and
// (where int is 32 bits) a replica that overflows int.
var compactTaskRefusals = func() []string {
	base := compactTaskOf(compactInput("64", "0,2"), compactInput("8", "1"))
	var tasks []string
	for i := 1; i < len(base); i++ {
		tasks = append(tasks, base[:i]+" "+base[i:])
	}
	for _, size := range []string{"-1", "1.5", "1.0", "1e2", "01", "0", "-0", strings.Repeat("1", 16), "null"} {
		tasks = append(tasks, compactTaskOf(compactInput(size, "0")))
	}
	for _, reps := range []string{"-1", "1.0", "1e0", "01", "", "0,", ",0", "0,,1", strings.Repeat("1", 19)} {
		tasks = append(tasks, compactTaskOf(compactInput("1", reps)))
	}
	if strconv.IntSize == 32 {
		tasks = append(tasks, compactTaskOf(compactInput("1", strconv.Itoa(math.MaxInt32)+"0")))
	}
	return append(tasks,
		`{"inputs":[{"replicas":[0],"size_mb":1}]}`,
		`{"inputs":[{"size_mb":1,"replicas":[0],"size_mb":1}]}`,
		`{"inputs":[{"size_mb":1}]}`,
		`{"inputs":[]}`,
		`{"inputs":null}`,
		compactTaskOf(compactInput("1", "0"), compactInput("2", "1"), compactInput("3", "2"), compactInput("4", "3")))
}()

// compactTaskAccepts are compact tasks compactTask takes whole, with the
// sizes and replica rows it must accumulate.
var compactTaskAccepts = []struct {
	name, task string
	sizes      []float64
	reps       [][]int
}{
	{"one input", compactTaskOf(compactInput("64", "2")), []float64{64}, [][]int{{2}}},
	{"inputs up to the cap", compactTaskOf(compactInput("30", "3,1,2"), compactInput("20", "0"), compactInput("10", "2,0")),
		[]float64{30, 20, 10}, [][]int{{3, 1, 2}, {0}, {2, 0}}},
	{"multi-digit values", compactTaskOf(compactInput("999999999999999", "2147483647,0,10")),
		[]float64{999999999999999}, [][]int{{2147483647, 0, 10}}},
}

// TestCompactTask: compactTask takes each accepted task whole, past an
// earlier task in the same accumulator, and declines every refusal, and
// every accepted task cut short by the window's end, consuming nothing and
// leaving every accumulator length as it was.
func TestCompactTask(t *testing.T) {
	const prior = `{"inputs":[{"size_mb":5,"replicas":[1,0]}]},`
	lens := func(a *layoutAcc) [4]int { return [4]int{len(a.taskInputs), len(a.inputs), len(a.repOff), len(a.reps)} }
	// primed returns a lexer whose accumulator holds the prior task and whose
	// cursor is on text.
	primed := func(t *testing.T, text string) *lexer {
		lx := &lexer{buf: []byte(prior + text), end: len(prior) + len(text)}
		lx.acc.reset()
		if !lx.compactTask(compactTaskInputs) {
			t.Fatal("the prior task was declined")
		}
		lx.pos++ // the ','
		return lx
	}
	declines := func(t *testing.T, text string) {
		lx := primed(t, text)
		before, pos := lens(&lx.acc), lx.pos
		if lx.compactTask(compactTaskInputs) {
			t.Fatalf("took %q", text)
		}
		if got := lens(&lx.acc); got != before || lx.pos != pos {
			t.Fatalf("declining %q moved the cursor %d → %d or the accumulator lengths %v → %v", text, pos, lx.pos, before, got)
		}
	}
	for _, tc := range compactTaskAccepts {
		t.Run(tc.name, func(t *testing.T) {
			for _, tail := range []string{"", "]}", ","} { // the last task of a window, of a list, or not
				lx := primed(t, tc.task+tail)
				if !lx.compactTask(compactTaskInputs) {
					t.Fatalf("declined with %q after it", tail)
				}
				a := &lx.acc
				if lx.pos != len(prior)+len(tc.task) || !slices.Equal(a.taskInputs, []int32{1, int32(len(tc.sizes))}) {
					t.Fatalf("cursor %d, inputs per task %v", lx.pos, a.taskInputs)
				}
				for i, size := range tc.sizes {
					in, row := a.inputs[1+i], a.reps[a.repOff[1+i]:a.repOff[2+i]]
					if in.SizeMB != size || in.Chunk != dfs.ChunkID(1+i) || !slices.Equal(row, tc.reps[i]) {
						t.Fatalf("input %d: %+v with replicas %v, want size %v, replicas %v", i, in, row, size, tc.reps[i])
					}
				}
				if len(a.inputs) != 1+len(tc.sizes) || len(a.repOff) != 2+len(tc.sizes) || a.repOff[len(a.repOff)-1] != len(a.reps) {
					t.Fatalf("%d inputs, repOff %v over %d replicas", len(a.inputs), a.repOff, len(a.reps))
				}
			}
			for cut := 1; cut < len(tc.task); cut++ {
				declines(t, tc.task[:cut])
			}
		})
	}
	for _, task := range compactTaskRefusals {
		declines(t, task+"]}")
	}
}

// TestDecodeReplicaRowErrors pins the replica post-pass's messages and the
// element each fires at: rows in task and input order, each left to right,
// the range test before the distinctness test, whichever path scanned the
// row.
func TestDecodeReplicaRowErrors(t *testing.T) {
	one := func(reps string) string {
		return `{"nodes":4,"tasks":[` + compactTaskOf(compactInput("1", reps)) + `]}`
	}
	for _, tc := range []struct{ body, want string }{
		{one("1,3,1"), "task 0 input 0: duplicate replica node 1"},
		{one("3,2,1,0,3"), "task 0 input 0: duplicate replica node 3"},
		{one("2,9,2"), "task 0 input 0: replica node 9 outside cluster"},
		{one("2,2,9"), "task 0 input 0: duplicate replica node 2"},
		{one("-1,0"), "task 0 input 0: replica node -1 outside cluster"},
		{one("0, 0"), "task 0 input 0: duplicate replica node 0"},
		{`{"nodes":4,"tasks":[` + compactTaskOf(compactInput("1", "0")) + `,` +
			compactTaskOf(compactInput("1", "0"), compactInput("1", "3,0,3")) + `]}`, "task 1 input 1: duplicate replica node 3"},
	} {
		lx := &lexer{r: strings.NewReader(tc.body), buf: make([]byte, windowSize)}
		if _, _, apiErr := decodeRequest(lx, waysOutLimits); apiErr == nil || apiErr.reason != "invalid" || apiErr.Error() != tc.want {
			t.Errorf("%s: got %v, want invalid %q", tc.body, apiErr, tc.want)
		}
	}
}

// fastPathEdgeBodies sit where the lexer's fast paths hand over to number,
// elem and str: integer literals the fused scan must take whole or refuse
// (signs, leading zeros, fractions, exponents, and runs either side of its
// 15-digit float and 18-digit integer limits), replica arrays that are not
// compact, keys one byte off a known name, bodies cut inside a key, and
// every compactTask refusal and acceptance as a request's only task or
// between two compact tasks, and a row whose duplicate replica is not its
// neighbour until the post-pass sorts it.
var fastPathEdgeBodies = func() []string {
	input := func(obj string) string { return `{"nodes":4,"tasks":[{"inputs":[` + obj + `]}]}` }
	var bodies []string
	for _, lit := range []string{"0", "00", "-0", "-1", "1e0", "1.0",
		strings.Repeat("1", 15), strings.Repeat("1", 16),
		strings.Repeat("1", 18), strings.Repeat("1", 19), strings.Repeat("1", 20)} {
		bodies = append(bodies,
			input(`{"size_mb":1,"replicas":[`+lit+`]}`),
			input(`{"size_mb":`+lit+`,"replicas":[0]}`),
			`{"nodes":4,"seed":`+lit+`,`+oneTask+`}`)
	}
	for _, arr := range []string{"[ 1 , 2 ]", "[1,]", "[,1]", "[]", "[1 ,2]", "[1,2 ]", "[1 2]"} {
		bodies = append(bodies, input(`{"size_mb":1,"replicas":`+arr+`}`))
	}
	for _, key := range []string{"size", "size_mbx", "replica"} {
		bodies = append(bodies, input(`{"`+key+`":1,"replicas":[0]}`))
	}
	var tasks []string
	for _, tc := range compactTaskAccepts {
		tasks = append(tasks, tc.task)
	}
	for _, task := range append(tasks, compactTaskRefusals...) {
		bodies = append(bodies, `{"nodes":4,"tasks":[`+task+`]}`,
			`{"nodes":4,"tasks":[`+tasks[1]+`,`+task+`,`+tasks[0]+`]}`)
	}
	return append(bodies, `{"nodes":4,"tasks":[{"inputs":[{"size_mb`, `{"nodes":4,"tasks":[{"inputs":[{"size_m`,
		`{"nodes":4,"tasks":[`+compactTaskOf(compactInput("1", "1,3,1"))+`]}`)
}()

// fuzzWindow is the shrunken window FuzzDecode replays every body through:
// the smallest that still holds the longest key ("repair_delay_seconds" and
// its quotes), so a refill lands inside nearly every token.
const fuzzWindow = 24

// FuzzDecode holds the scanner to the reference decoder on arbitrary bytes:
// same accept/reject and status, same reason bucket, and on accept the same
// problem and request scalars. Each body is decoded twice by the scanner —
// whole, and one byte per Read through a fuzzWindow-byte window — so every
// token meets a refill boundary. A body json.Indent accepts is decoded a
// third time re-indented, where no compactTask fast path applies, and must
// come out identical to the body as sent, error message included. The caps
// are small enough for the fuzzer to reach.
func FuzzDecode(f *testing.F) {
	for _, body := range staleFieldBodies {
		f.Add([]byte(body))
	}
	for _, row := range grammarRows {
		f.Add([]byte(row.body))
	}
	for _, body := range fastPathEdgeBodies {
		f.Add([]byte(body))
	}
	lim := RequestLimits{BodyBytes: 1 << 20, Nodes: 64, Procs: 8, Tasks: 16, InputsPerTask: 3}
	f.Fuzz(func(t *testing.T, body []byte) {
		request := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
		}
		want := outcomeOf(decodeProblemReference(httptest.NewRecorder(), request(), lim))
		sent := outcomeOf(decodeProblem(httptest.NewRecorder(), request(), lim))
		if diff := sent.same(want); diff != "" {
			t.Fatalf("scanner vs reference: %s\nbody: %q", diff, body)
		}
		var indented bytes.Buffer
		if json.Indent(&indented, body, "", "  ") == nil {
			re := httptest.NewRequest(http.MethodPost, "/v1/plan", &indented)
			if diff := outcomeOf(decodeProblem(httptest.NewRecorder(), re, lim)).identical(sent); diff != "" {
				t.Fatalf("scanner on the re-indented body vs as sent: %s\nbody: %q", diff, body)
			}
		}
		small := &lexer{r: iotest.OneByteReader(bytes.NewReader(body)), buf: make([]byte, fuzzWindow)}
		got := outcomeOf(decodeRequest(small, lim))
		if errors.Is(got.err, errTokenTooLong) {
			return // by definition depends on the window
		}
		if diff := got.same(want); diff != "" {
			t.Fatalf("scanner through a %d-byte window vs reference: %s\nbody: %q", fuzzWindow, diff, body)
		}
	})
}

// TestDecodeEveryWindowEdge: a multi-input body with fault fields and
// proc_nodes, and every fastPathEdgeBodies body, decode through each window
// size from fuzzWindow to 128 bytes exactly as the reference decodes them.
// Each size moves every refill to another offset, so each fast path is
// entered at, and abandoned at, every distance from the window's end, which
// FuzzDecode's one-byte reads never leave room for.
func TestDecodeEveryWindowEdge(t *testing.T) {
	lim := waysOutLimits
	faults := benchBody(8, 16, []float64{30, 2.5, 10}, true, 1)
	bodies := append([]string{`{"proc_nodes":[0,1,2,3,4,5,6,7],` + string(faults[1:])}, fastPathEdgeBodies...)
	for bi, body := range bodies {
		want := outcomeOf(decodeProblemReference(httptest.NewRecorder(),
			httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)), lim))
		if bi == 0 && want.status != http.StatusOK {
			t.Fatalf("reference rejects the fault body: %v", want.err)
		}
		for w := fuzzWindow; w <= 128; w++ {
			lx := &lexer{r: strings.NewReader(body), buf: make([]byte, w)}
			if diff := outcomeOf(decodeRequest(lx, lim)).same(want); diff != "" {
				t.Fatalf("%d-byte window vs reference: %s\nbody: %q", w, diff, body)
			}
		}
	}
}

// TestDecodeHostileInputBounded: what a rejected body costs does not depend
// on how much of it follows the offending element — neither a task list far
// past the cap nor a string far longer than the window grows an allocation.
func TestDecodeHostileInputBounded(t *testing.T) {
	lim := RequestLimits{Tasks: 100}.withDefaults()
	pastCap := func(tasks int) []byte { return benchBody(8, tasks, []float64{64}, false, 1) }
	longKey := func(n int) []byte { return []byte(`{"` + strings.Repeat("k", n)) }
	for _, tc := range []struct {
		name         string
		short, long  []byte
		status       int
		reason, frag string
	}{
		{"one task past the cap", pastCap(101), pastCap(200_000), 400, "too_many_tasks", "maximum 100 tasks"},
		{"string where a key belongs", longKey(2 * windowSize), longKey(1 << 20), 400, "invalid", "window"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One caller-owned lexer — window and accumulators — across runs,
			// as the pool provides in service (the pool itself drops entries
			// at random under -race).
			lx := &lexer{buf: make([]byte, windowSize)}
			cost := func(body []byte) (allocs float64, bytesPerRun uint64) {
				rd := bytes.NewReader(nil)
				run := func() {
					rd.Reset(body)
					lx.reset(rd)
					_, _, apiErr := decodeRequest(lx, lim)
					if apiErr == nil || apiErr.status != tc.status || apiErr.reason != tc.reason ||
						!strings.Contains(apiErr.Error(), tc.frag) {
						t.Fatalf("got %v, want %d %s containing %q", apiErr, tc.status, tc.reason, tc.frag)
					}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				allocs = testing.AllocsPerRun(20, run)
				runtime.ReadMemStats(&after)
				return allocs, (after.TotalAlloc - before.TotalAlloc) / 21
			}
			shortAllocs, shortBytes := cost(tc.short)
			longAllocs, longBytes := cost(tc.long)
			t.Logf("short body: %.0f allocs, %d B per rejection; long body: %.0f allocs, %d B", shortAllocs, shortBytes, longAllocs, longBytes)
			if longAllocs > shortAllocs+2 || longBytes > shortBytes+shortBytes/4+1024 {
				t.Fatalf("rejection cost grows with the body: %.0f allocs / %d B for %d bytes, %.0f allocs / %d B for %d bytes",
					shortAllocs, shortBytes, len(tc.short), longAllocs, longBytes, len(tc.long))
			}
		})
	}
}

// wayOut is one way out of the decoder: a body and the status it earns under
// waysOutLimits.
type wayOut struct {
	name   string
	body   string
	status int
}

var waysOutLimits = RequestLimits{BodyBytes: 4 * windowSize, Tasks: 16, InputsPerTask: 3}.withDefaults()

// waysOut lists a success and one body per kind of rejection, the last of
// them failing in the replica post-pass after earlier rows were sorted in
// place. valid is the accepted body the others are cut from.
func waysOut() (valid string, ways []wayOut) {
	valid = string(benchBody(8, 16, []float64{30, 20, 10}, true, 1))
	return valid, []wayOut{
		{"success", valid, 200},
		{"syntax error", valid[:len(valid)/2] + "?", 400},
		{"validation error", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":1,"replicas":[9]}]}]}`, 400},
		{"task cap", string(benchBody(8, 17, []float64{64}, false, 1)), 400},
		{"input cap", string(benchBody(8, 2, []float64{1, 2, 3, 4}, false, 1)), 400},
		{"window overrun", `{"` + strings.Repeat("k", 2*windowSize), 400},
		{"trailing data", valid[:len(valid)-1] + " }x", 400},
		{"body limit", valid[:len(valid)-1] + strings.Repeat(" ", 4*windowSize) + "}", 413},
		{"post-pass error after sorted rows", `{"nodes":4,"tasks":[{"inputs":[{"size_mb":8,"replicas":[3,1,2]},{"size_mb":8,"replicas":[2,0]}]},{"inputs":[{"size_mb":8,"replicas":[1,9]}]}]}`, 400},
	}
}

// TestDecodeWindowReleased: the pooled window and the pooled body buffer go
// back on every way out of a /v1/plan request — success (a miss, then its
// aliased hit), each kind of rejection (each posted twice), and a client that
// disconnects mid-body, both while the body is read ahead and, with the cache
// off, while the decoder streams it.
func TestDecodeWindowReleased(t *testing.T) {
	valid, ways := waysOut()
	s := NewServer(ServerOptions{Limits: waysOutLimits})
	for _, tc := range ways {
		t.Run(tc.name, func(t *testing.T) {
			lexers, bodies := lexersOut.Load(), bodiesOut.Load()
			for range 2 {
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(tc.body)))
				if w.Code != tc.status {
					t.Fatalf("status %d (%s), want %d", w.Code, w.Body, tc.status)
				}
				if got := lexersOut.Load(); got != lexers {
					t.Fatalf("%d windows out after the request, %d before", got, lexers)
				}
				if got := bodiesOut.Load(); got != bodies {
					t.Fatalf("%d body buffers out after the request, %d before", got, bodies)
				}
			}
		})
	}
	disconnect := func(t *testing.T, opts ServerOptions, what string, blocked func(lexers, bodies int64) bool) {
		srv := httptest.NewServer(NewServer(opts))
		defer srv.Close()
		lexers, bodies := lexersOut.Load(), bodiesOut.Load()
		body, feed := io.Pipe()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/plan", body)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		if _, err := io.WriteString(feed, valid[:len(valid)/2]); err != nil {
			t.Fatal(err)
		}
		waitFor(t, what, func() bool { return blocked(lexersOut.Load()-lexers, bodiesOut.Load()-bodies) })
		cancel()
		waitFor(t, "window and body buffer returned", func() bool {
			return lexersOut.Load() == lexers && bodiesOut.Load() == bodies
		})
		feed.Close() // the transport's write loop is still reading the body; Do returns once it stops
		<-done
	}
	t.Run("client disconnect mid-body", func(t *testing.T) {
		disconnect(t, ServerOptions{}, "read-ahead blocked on the rest of the body",
			func(lexers, bodies int64) bool { return bodies == 1 && lexers == 0 })
	})
	t.Run("client disconnect mid-body, cache off", func(t *testing.T) {
		disconnect(t, ServerOptions{PlanCacheEntries: -1}, "decoder blocked on the rest of the body",
			func(lexers, bodies int64) bool { return lexers == 1 && bodies == 0 })
	})
}
