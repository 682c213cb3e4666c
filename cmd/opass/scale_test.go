package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"opass/internal/httpapi"
	"opass/internal/telemetry"
)

// TestWriteScaleBody pins the generator: deterministic output, distinct
// replicas, and a body the streaming decoder accepts end to end.
func TestWriteScaleBody(t *testing.T) {
	var a, b bytes.Buffer
	n, err := writeScaleBody(&a, 8, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(a.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, a.Len())
	}
	if _, err := writeScaleBody(&b, 8, 80, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different bodies")
	}

	var req struct {
		Nodes     int   `json:"nodes"`
		ProcNodes []int `json:"proc_nodes"`
		Tasks     []struct {
			Inputs []struct {
				SizeMB   float64 `json:"size_mb"`
				Replicas []int   `json:"replicas"`
			} `json:"inputs"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal(a.Bytes(), &req); err != nil {
		t.Fatalf("generated body is not valid JSON: %v", err)
	}
	if req.Nodes != 8 || len(req.ProcNodes) != 8 || len(req.Tasks) != 80 {
		t.Fatalf("body shape: nodes=%d procs=%d tasks=%d", req.Nodes, len(req.ProcNodes), len(req.Tasks))
	}
	for ti, task := range req.Tasks {
		reps := task.Inputs[0].Replicas
		if len(reps) != 3 || reps[0] == reps[1] || reps[0] == reps[2] || reps[1] == reps[2] {
			t.Fatalf("task %d replicas %v are not 3 distinct nodes", ti, reps)
		}
	}

	srv := httptest.NewServer(httpapi.NewServer(httpapi.ServerOptions{
		Registry: telemetry.NewRegistry(),
	}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", &a)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generated body rejected: %d", resp.StatusCode)
	}
}
