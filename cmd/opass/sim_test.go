package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"opass/internal/report"
	"opass/internal/workload"
)

const mixedTrace = "testdata/mixed.csv"

// TestSimTrace replays a trace of mixed single- and 3-input tasks under
// each sim mode, and checks that -strategy and -compare act on the trace:
// rank's replay runs every traced task, and the baseline column of the
// comparison is that replay, not the synthetic -chunks-per-proc workload.
func TestSimTrace(t *testing.T) {
	f, err := os.Open(mixedTrace)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.ParseTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sim := func(extra string) string {
		t.Helper()
		args := append([]string{"sim", "-nodes", "8", "-trace", mixedTrace}, strings.Fields(extra)...)
		status, stdout, stderr := invoke(args...)
		if status != 0 || stderr != "" {
			t.Fatalf("opass %s: exit %d, stderr %q", strings.Join(args, " "), status, stderr)
		}
		return stdout
	}
	summary := func(extra string) report.Summary {
		t.Helper()
		var s report.Summary
		if err := json.Unmarshal([]byte(sim(extra)), &s); err != nil {
			t.Fatalf("sim %s: %v", extra, err)
		}
		return s
	}

	if first, _, _ := strings.Cut(sim(""), "\n"); first != "strategy          opass" {
		t.Errorf("default replay: first line %q", first)
	}
	if out := sim("-dynamic"); !strings.Contains(out, fmt.Sprintf("tasks run         %d\n", len(tasks))) {
		t.Errorf("dynamic replay did not run %d tasks:\n%s", len(tasks), out)
	}
	if s := summary("-compare -json"); s.Strategy != "opass" || s.Tasks != len(tasks) {
		t.Errorf("-compare -json: strategy %q, %d tasks; want opass, %d", s.Strategy, s.Tasks, len(tasks))
	}
	rank := summary("-strategy rank -json")
	if rank.Strategy != "rank" || rank.Tasks != len(tasks) {
		t.Fatalf("-strategy rank: strategy %q, %d tasks; want rank, %d", rank.Strategy, rank.Tasks, len(tasks))
	}
	want := fmt.Sprintf("%-22s %14.3f ", "max served/node (MB)", rank.Served.Max)
	if out := sim("-compare"); !strings.Contains(out, want) {
		t.Errorf("-compare baseline is not rank's replay of the trace (want a row starting %q):\n%s", want, out)
	}
}
