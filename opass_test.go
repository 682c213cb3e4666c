package opass

import (
	"strings"
	"testing"

	"opass/internal/report"
)

func TestQuickstartFlow(t *testing.T) {
	c, err := NewClusterWithOptions(16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/data", 16*10*64); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanSingleData(StrategyOpass, "/data")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Locality() < 0.9 {
		t.Fatalf("planned locality %v, want >= 0.9", plan.Locality())
	}
	rep, err := c.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksRun != 160 {
		t.Fatalf("tasks = %d, want 160", rep.TasksRun)
	}
	if rep.LocalFraction < 0.9 {
		t.Fatalf("executed locality %v", rep.LocalFraction)
	}
	if !strings.Contains(rep.String(), "opass") {
		t.Fatalf("report string %q", rep.String())
	}
	if !strings.Contains(rep.Table(), "makespan") {
		t.Fatal("table missing makespan")
	}
}

func TestStrategiesCompared(t *testing.T) {
	build := func() *Cluster {
		c, err := NewClusterWithOptions(16, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Store("/data", 16*10*64); err != nil {
			t.Fatal(err)
		}
		return c
	}
	cRank := build()
	pRank, err := cRank.PlanSingleData(StrategyRank, "/data")
	if err != nil {
		t.Fatal(err)
	}
	rRank, err := cRank.Run(pRank)
	if err != nil {
		t.Fatal(err)
	}
	cOp := build()
	pOp, err := cOp.PlanSingleData(StrategyOpass, "/data")
	if err != nil {
		t.Fatal(err)
	}
	rOp, err := cOp.Run(pOp)
	if err != nil {
		t.Fatal(err)
	}
	if rOp.IO.Mean >= rRank.IO.Mean {
		t.Fatalf("opass mean IO %v >= rank %v", rOp.IO.Mean, rRank.IO.Mean)
	}
	if rOp.Fairness <= rRank.Fairness {
		t.Fatalf("opass fairness %v <= rank %v", rOp.Fairness, rRank.Fairness)
	}
	out := Compare(rRank, rOp)
	if !strings.Contains(out, "avg I/O time") || !strings.Contains(out, "gain") {
		t.Fatalf("compare output:\n%s", out)
	}
}

func TestMultiDataPlan(t *testing.T) {
	c, err := NewClusterWithOptions(8, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := 8 * 4
	sizes := func(sz float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = sz
		}
		return out
	}
	for name, sz := range map[string]float64{"/human": 30, "/mouse": 20, "/chimp": 10} {
		if err := c.StorePieces(name, sizes(sz)); err != nil {
			t.Fatal(err)
		}
	}
	tasks := make([]TaskSpec, n)
	for i := range tasks {
		tasks[i] = TaskSpec{Inputs: []PieceRef{
			{File: "/human", Index: i},
			{File: "/mouse", Index: i},
			{File: "/chimp", Index: i},
		}}
	}
	plan, err := c.PlanMultiData(StrategyOpass, tasks)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksRun != n {
		t.Fatalf("tasks = %d, want %d", rep.TasksRun, n)
	}
	if len(rep.IOTimes) != n*3 {
		t.Fatalf("reads = %d, want %d", len(rep.IOTimes), n*3)
	}
}

func TestDynamicPlanExecution(t *testing.T) {
	c, err := NewClusterWithOptions(8, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/data", 8*5*64); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanSingleData(StrategyOpass, "/data")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.RunWithOptions(plan.AsDynamic(), RunOptions{
		ComputeTime: func(task int) float64 { return 0.1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksRun != 40 {
		t.Fatalf("tasks = %d, want 40", rep.TasksRun)
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := NewClusterWithOptions(0, Options{}); err == nil {
		t.Fatal("zero nodes must fail")
	}
	c, _ := NewClusterWithOptions(4, Options{})
	if _, err := c.PlanSingleData(StrategyOpass, "/missing"); err == nil {
		t.Fatal("missing file must fail")
	}
	c.Store("/d", 64)
	if _, err := c.PlanSingleData(Strategy("bogus"), "/d"); err == nil {
		t.Fatal("bogus strategy must fail")
	}
	if _, err := c.PlanMultiData(StrategyOpass, []TaskSpec{
		{Inputs: []PieceRef{{File: "/d", Index: 99}}},
	}); err == nil {
		t.Fatal("out-of-range piece must fail")
	}
	// A non-positive piece fails the whole store: no chunk, no stored
	// megabyte and no epoch bump may survive it.
	fs := c.fs
	chunks, stored, epoch := fs.NumChunks(), fs.TotalStoredMB(), fs.Epoch()
	if err := c.StorePieces("/pieces", []float64{64, 0}); err == nil {
		t.Fatal("non-positive piece must fail")
	}
	if fs.NumChunks() != chunks || fs.TotalStoredMB() != stored || fs.Epoch() != epoch || len(fs.Fsck()) != 0 {
		t.Fatalf("failed StorePieces left state behind: chunks %d stored %v MB epoch %d fsck %v, want %d, %v, %d, none",
			fs.NumChunks(), fs.TotalStoredMB(), fs.Epoch(), fs.Fsck(), chunks, stored, epoch)
	}
}

func TestOptionsPropagate(t *testing.T) {
	c, err := NewClusterWithOptions(6, Options{
		Replication: 2,
		ChunkMB:     32,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/data", 6*32); err != nil {
		t.Fatal(err)
	}
	if c.fs.NumChunks() != 6 {
		t.Fatalf("chunks = %d, want 6 (32 MB chunk size)", c.fs.NumChunks())
	}
	locs, _ := c.fs.BlockLocations("/data")
	for _, l := range locs {
		if len(l.Replicas) != 2 {
			t.Fatalf("replication = %d, want 2", len(l.Replicas))
		}
	}
}

// TestMasterSelection runs every strategy's plan through its dynamic
// master: the §IV-D scheduler for an Opass plan (greedy is one more name
// for opass), the random dispatcher for the rest.
func TestMasterSelection(t *testing.T) {
	for _, s := range []Strategy{StrategyOpass, Strategy("greedy"), StrategyRank, StrategyRandom} {
		c, err := NewClusterWithOptions(8, Options{Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Store("/data", 8*5*64); err != nil {
			t.Fatal(err)
		}
		plan, err := c.PlanSingleData(s, "/data")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(plan.AsDynamic())
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if rep.TasksRun != 40 {
			t.Fatalf("%s master ran %d tasks, want 40", s, rep.TasksRun)
		}
	}
}

// TestReportAgreesWithSummary ties the facade's Report to report.Summarize,
// the one place run statistics are computed, so the two cannot drift.
func TestReportAgreesWithSummary(t *testing.T) {
	c, err := NewClusterWithOptions(16, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/data", 16*10*64); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanSingleData(StrategyRank, "/data")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	got := ReportOf(rep.Raw())
	want := report.Summarize(rep.Raw())
	if got.IO != want.IO || got.Served != want.Served {
		t.Errorf("IO %+v / Served %+v, summary has %+v / %+v", got.IO, got.Served, want.IO, want.Served)
	}
	if got.LocalFraction != want.LocalFraction || got.Fairness != want.Fairness {
		t.Errorf("local %v fairness %v, summary has %v and %v", got.LocalFraction, got.Fairness, want.LocalFraction, want.Fairness)
	}
	if got.Makespan != want.Makespan || got.TasksRun != want.Tasks {
		t.Errorf("makespan %v tasks %d, summary has %v and %d", got.Makespan, got.TasksRun, want.Makespan, want.Tasks)
	}
	if want.IO.Count != 160 || want.LocalFraction == 0 || want.LocalFraction == 1 {
		t.Errorf("run too trivial to compare: %+v", want)
	}
}
