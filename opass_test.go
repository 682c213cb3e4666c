package opass

import (
	"strings"
	"testing"

	"opass/internal/dfs"
	"opass/internal/report"
)

func TestQuickstartFlow(t *testing.T) {
	c, err := NewCluster(16)
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
	if _, err := NewCluster(0); err == nil {
		t.Fatal("zero nodes must fail")
	}
	c, _ := NewCluster(4)
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
	fs := c.FS()
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
		Placement:   dfs.RoundRobinPlacement{},
		Racks:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/data", 6*32); err != nil {
		t.Fatal(err)
	}
	if c.FS().NumChunks() != 6 {
		t.Fatalf("chunks = %d, want 6 (32 MB chunk size)", c.FS().NumChunks())
	}
	locs, _ := c.FS().BlockLocations("/data")
	for _, l := range locs {
		if len(l.Replicas) != 2 {
			t.Fatalf("replication = %d, want 2", len(l.Replicas))
		}
	}
	if c.Topology().NumRacks() != 2 {
		t.Fatal("racks option lost")
	}
}

func TestGreedyStrategyFacade(t *testing.T) {
	c, err := NewClusterWithOptions(8, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/data", 8*10*64); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanSingleData(StrategyGreedy, "/data")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Locality() < 0.85 {
		t.Fatalf("greedy locality %v", plan.Locality())
	}
	rep, err := c.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksRun != 80 {
		t.Fatalf("tasks = %d", rep.TasksRun)
	}
}

func TestMasterSelection(t *testing.T) {
	build := func() (*Cluster, *Plan) {
		c, err := NewClusterWithOptions(8, Options{Seed: 12})
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
		return c, plan.AsDynamic()
	}
	for _, master := range []Master{MasterAuto, MasterOpass, MasterRandom, MasterDelay} {
		c, plan := build()
		rep, err := c.RunWithOptions(plan, RunOptions{Master: master})
		if err != nil {
			t.Fatalf("master %q: %v", master, err)
		}
		if rep.TasksRun != 40 {
			t.Fatalf("master %q ran %d tasks", master, rep.TasksRun)
		}
	}
	c, plan := build()
	if _, err := c.RunWithOptions(plan, RunOptions{Master: Master("bogus")}); err == nil {
		t.Fatal("bogus master must fail")
	}
}

func TestFacadeRedistribution(t *testing.T) {
	c, err := NewClusterWithOptions(8, Options{Seed: 21, Placement: dfs.ClusteredPlacement{}})
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
	if plan.Locality() >= 1 {
		t.Fatal("fixture should start partially local")
	}
	rp, err := c.PlanRedistribution(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Migrations == 0 || rp.MovedMB == 0 {
		t.Fatalf("empty redistribution plan: %+v", rp)
	}
	if err := rp.Apply(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalFraction != 1.0 {
		t.Fatalf("post-migration locality %v", rep.LocalFraction)
	}
}

func TestFacadeFailureInjection(t *testing.T) {
	c, err := NewClusterWithOptions(8, Options{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/data", 8*10*64); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanSingleData(StrategyOpass, "/data")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.RunWithOptions(plan, RunOptions{
		Failures: []NodeFailure{{Node: 2, At: 1.0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksRun != 80 {
		t.Fatalf("tasks = %d", rep.TasksRun)
	}
	if rep.LocalFraction >= 1.0 {
		t.Fatalf("crash should cost some locality: %v", rep.LocalFraction)
	}
}

func TestRunConcurrent(t *testing.T) {
	c, err := NewClusterWithOptions(8, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/a", 8*5*64); err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/b", 8*5*64); err != nil {
		t.Fatal(err)
	}
	pa, err := c.PlanSingleData(StrategyOpass, "/a")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.PlanSingleData(StrategyRank, "/b")
	if err != nil {
		t.Fatal(err)
	}
	reports, err := c.RunConcurrent([]*Plan{pa, pb.AsDynamic()})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for i, rep := range reports {
		if rep.TasksRun != 40 {
			t.Fatalf("plan %d ran %d tasks", i, rep.TasksRun)
		}
	}
	// The opass job keeps its locality despite the noisy neighbor.
	if reports[0].LocalFraction < 0.9 {
		t.Fatalf("opass locality %v under co-running job", reports[0].LocalFraction)
	}
}

func TestFacadeAdvisor(t *testing.T) {
	c, err := NewClusterWithOptions(8, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/hot", 8*4*64); err != nil {
		t.Fatal(err)
	}
	if err := c.Store("/cold", 8*4*64); err != nil {
		t.Fatal(err)
	}
	adv, err := c.NewAdvisor(AdvisorOptions{Interval: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanSingleData(StrategyOpass, "/hot")
	if err != nil {
		t.Fatal(err)
	}
	budget := c.FS().TotalStoredMB()
	for i := 0; i < 3; i++ {
		rep, err := c.RunWithOptions(plan, RunOptions{Advisor: adv})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TasksRun != 32 {
			t.Fatalf("run %d executed %d tasks", i, rep.TasksRun)
		}
	}
	st := adv.Stats()
	if st.Ticks == 0 {
		t.Fatal("advisor never ticked across three runs")
	}
	if got := c.FS().TotalStoredMB(); got > budget+1e-9 {
		t.Fatalf("stored %v MB exceeds the initial %v MB", got, budget)
	}
	if problems := c.FS().Fsck(); len(problems) != 0 {
		t.Fatalf("fsck after advised runs: %v", problems)
	}
	// Dynamic plans have no re-matchable backlog; the advisor is refused.
	if _, err := c.RunWithOptions(plan.AsDynamic(), RunOptions{Advisor: adv}); err == nil {
		t.Fatal("advisor accepted a dynamic plan")
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
