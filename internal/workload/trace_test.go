package workload

import (
	"strings"
	"testing"

	"opass/internal/core"
	"opass/internal/engine"
)

const sampleTrace = `# task_id, compute_s, input_mb...
0, 0.5, 64
1, 1.0, 64
2, 0.0, 30, 20, 10
3, 2.5, 64
`

func TestParseTrace(t *testing.T) {
	tasks, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 4 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	if tasks[2].ComputeS != 0 || len(tasks[2].InputsMB) != 3 {
		t.Fatalf("task 2 = %+v", tasks[2])
	}
	if tasks[3].ComputeS != 2.5 {
		t.Fatalf("task 3 compute %v", tasks[3].ComputeS)
	}
}

func TestParseTraceErrors(t *testing.T) {
	for i, bad := range []string{
		"",                  // empty
		"0, 0.5",            // no inputs
		"5, 0.5, 64",        // non-dense id
		"x, 0.5, 64",        // bad id
		"0, -1, 64",         // negative compute
		"0, 0.5, -64",       // negative input
		"0, 0.5, sixtyfour", // non-numeric input
		"0, fast, 64",       // non-numeric compute
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("case %d (%q): expected error", i, bad)
		}
	}
}

func TestTraceSpecBuildAndRun(t *testing.T) {
	tasks, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	rig, err := TraceSpec{Nodes: 4, Tasks: tasks, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(rig.Prob.Tasks) != 4 {
		t.Fatalf("problem tasks = %d", len(rig.Prob.Tasks))
	}
	if rig.Compute == nil || rig.Compute(3) != 2.5 {
		t.Fatal("traced compute times lost")
	}
	// Mixed single- and multi-input tasks are one multi-data problem, which
	// "opass" plans with the exact multi-data planner.
	a, err := core.MultiExact{}.Assign(rig.Prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunAssignment(engine.Options{
		Topo: rig.Topo, FS: rig.FS, Problem: rig.Prob,
		ComputeTime: rig.Compute, Strategy: "trace",
	}, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 4 {
		t.Fatalf("ran %d tasks", res.TasksRun)
	}
	// Total reads = 3 single inputs + 3 multi inputs.
	if len(res.Records) != 6 {
		t.Fatalf("records = %d, want 6", len(res.Records))
	}
	// Makespan at least the longest compute.
	if res.Makespan < 2.5 {
		t.Fatalf("makespan %v below traced compute", res.Makespan)
	}
}

func TestTraceSpecValidation(t *testing.T) {
	if _, err := (TraceSpec{Nodes: 0, Tasks: []TraceTask{{ID: 0, InputsMB: []float64{1}}}}).Build(); err == nil {
		t.Fatal("zero nodes must fail")
	}
	if _, err := (TraceSpec{Nodes: 4}).Build(); err == nil {
		t.Fatal("no tasks must fail")
	}
}

func TestTraceSpecPureIOHasNilCompute(t *testing.T) {
	tasks, _ := ParseTrace(strings.NewReader("0, 0, 64\n1, 0, 64\n"))
	rig, err := TraceSpec{Nodes: 4, Tasks: tasks, Seed: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rig.Compute != nil {
		t.Fatal("all-zero compute should leave Compute nil")
	}
}
