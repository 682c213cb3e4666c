package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
)

// simulateGoldenBodies are the /v1/simulate requests whose 200 bodies
// testdata/simulate_golden.json pins: one per fault shape the engine
// handles, over layouts small enough to keep the file readable.
var simulateGoldenBodies = []struct {
	name   string
	body   []byte
	faults string // prepended to the body's fields
}{
	{"no-faults", benchBody(16, 96, []float64{64}, false, 1), ""},
	// The benchmark's simulate-faults shape: a permanent crash, a slow
	// node, repair and the delta replan.
	{"crash-repair-replan", benchBody(32, 320, []float64{64}, true, 2), ""},
	{"transient-outage", benchBody(16, 160, []float64{64}, false, 3),
		`"failures":[{"node":3,"at_seconds":2,"recover_at_seconds":5},{"node":9,"at_seconds":0}]`},
	{"degradation-window", benchBody(16, 160, []float64{64}, false, 4),
		`"degradations":[{"node":5,"at_seconds":1,"until_seconds":4,"disk_factor":0.25,"nic_factor":0.5}],"replan":true`},
	{"replan-without-repair", benchBody(16, 160, []float64{64}, false, 5),
		`"failures":[{"node":7,"at_seconds":2}],"replan":true`},
	{"three-inputs", benchBody(16, 64, []float64{30, 20, 10}, true, 6), ""},
}

// plannerMillis matches the response's one wall-clock field.
var plannerMillis = regexp.MustCompile(`"planner_ms":[^,}]*`)

// simulateGolden answers body on a fresh server, with planner_ms zeroed.
func simulateGolden(t *testing.T, body []byte) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	NewServer(ServerOptions{}).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
	}
	return plannerMillis.ReplaceAll(bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")), []byte(`"planner_ms":0`))
}

// TestSimulateGolden holds every /v1/simulate 200 of simulateGoldenBodies
// to the bytes in testdata/simulate_golden.json: the simulated read times,
// makespans, retries and replans of each fault shape, and the plan, exactly.
// To accept an intended change delete the file and run once.
func TestSimulateGolden(t *testing.T) {
	got := make(map[string][]byte, len(simulateGoldenBodies))
	for _, g := range simulateGoldenBodies {
		body := g.body
		if g.faults != "" {
			body = append([]byte("{"+g.faults+","), g.body[1:]...)
		}
		got[g.name] = simulateGolden(t, body)
	}
	const path = "testdata/simulate_golden.json"
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		// Written by hand, one response a line, so the stored bytes are
		// exactly the responses.
		out := []byte("{\n")
		for i, g := range simulateGoldenBodies {
			out = append(out, '"')
			out = append(out, g.name...)
			out = append(out, `": `...)
			out = append(out, got[g.name]...)
			if i < len(simulateGoldenBodies)-1 {
				out = append(out, ',')
			}
			out = append(out, '\n')
		}
		if err := os.WriteFile(path, append(out, "}\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("no golden file; wrote %s — review it and re-run", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d responses, want %d", path, len(want), len(got))
	}
	for _, g := range simulateGoldenBodies {
		if !bytes.Equal(got[g.name], want[g.name]) {
			t.Errorf("%s: response differs from %s\n--- got\n%s\n--- want\n%s", g.name, path, got[g.name], want[g.name])
		}
	}
}
