package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"opass/internal/httpapi"
	"opass/internal/telemetry"
)

// TestWriteScaleBody pins the body builder: deterministic bytes, distinct
// replicas, and a body the /v1/plan handler accepts end to end.
func TestWriteScaleBody(t *testing.T) {
	a, b := scaleBody(8, 80, 7), scaleBody(8, 80, 7)
	if !bytes.Equal(a, b) {
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
	if err := json.Unmarshal(a, &req); err != nil {
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

	api := httpapi.NewServer(httpapi.ServerOptions{Registry: telemetry.NewRegistry()})
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(a)))
	if rec.Code != http.StatusOK {
		t.Fatalf("generated body rejected: %d %s", rec.Code, rec.Body)
	}
}

// TestScaleStudyRows runs the trajectory at a divisor that keeps it to
// 4/8/16 processes and checks every row it merges into a document that
// already holds an unrelated key.
func TestScaleStudyRows(t *testing.T) {
	const cfg, seed = 640, 7
	path := filepath.Join(t.TempDir(), "BENCH_scale.json")
	if err := os.WriteFile(path, []byte(`{"unrelated":{"kept":true}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := scaleStudy(io.Discard, cfg, seed, path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var unrelated struct{ Kept bool }
	if json.Unmarshal(doc["unrelated"], &unrelated); !unrelated.Kept {
		t.Fatalf("unrelated key lost in the merge: %s", blob)
	}
	var rep scaleReport
	key := perProcsKey(runtime.GOMAXPROCS(0))
	if err := json.Unmarshal(doc[key], &rep); err != nil {
		t.Fatalf("no report under %s: %v", key, err)
	}
	if rep.Measures == "" || rep.Scale != cfg {
		t.Fatalf("report header: measures=%q scale=%d", rep.Measures, rep.Scale)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("%d rows, want 3 (4/8/16 processes)", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if want := 4 << i; row.Procs != want {
			t.Errorf("row %d: %d procs, want %d", i, row.Procs, want)
		}
		if row.PlannerSeconds > row.WallSeconds {
			t.Errorf("row %d: planner %gs exceeds wall %gs", i, row.PlannerSeconds, row.WallSeconds)
		}
		if n := int64(len(scaleBody(row.Procs, row.Tasks, seed))); row.BodyBytes != n {
			t.Errorf("row %d: body_bytes %d, built body is %d", i, row.BodyBytes, n)
		}
		// The peak is the sampled heap less the body; a subtraction that
		// wrapped would read as exabytes.
		if row.PeakHeapBytes > 1<<40 || row.HeapPerBodyByte != float64(row.PeakHeapBytes)/float64(row.BodyBytes) {
			t.Errorf("row %d: peak %d B, %g per body byte", i, row.PeakHeapBytes, row.HeapPerBodyByte)
		}
		if row.LocalityFraction <= 0 || row.LocalityFraction > 1 {
			t.Errorf("row %d: locality %g outside (0, 1]", i, row.LocalityFraction)
		}
	}
}
