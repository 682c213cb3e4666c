package engine

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
)

// rig bundles a ready-to-run experiment fixture.
type rig struct {
	topo *cluster.Topology
	fs   *dfs.FileSystem
	prob *core.Problem
}

func buildRig(t testing.TB, nodes, chunks int, seed int64, pol dfs.Placement) *rig {
	t.Helper()
	topo := cluster.New(nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: seed, Placement: pol})
	if _, err := fs.Create("/data", float64(chunks)*64); err != nil {
		t.Fatal(err)
	}
	procNode := make([]int, nodes)
	for i := range procNode {
		procNode[i] = i
	}
	prob, err := core.SingleDataProblem(fs, []string{"/data"}, procNode)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{topo: topo, fs: fs, prob: prob}
}

func (r *rig) opts(strategy string) Options {
	return Options{Topo: r.topo, FS: r.fs, Problem: r.prob, Strategy: strategy}
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	r := buildRig(t, 8, 40, 1, dfs.RandomPlacement{})
	a, err := core.RankStatic{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAssignment(r.opts("rank"), a)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 40 {
		t.Fatalf("tasks run = %d, want 40", res.TasksRun)
	}
	if len(res.Records) != 40 {
		t.Fatalf("records = %d, want 40 (one input per task)", len(res.Records))
	}
	seen := map[int]bool{}
	for _, rec := range res.Records {
		if seen[rec.Task] {
			t.Fatalf("task %d read twice", rec.Task)
		}
		seen[rec.Task] = true
	}
}

func TestServedMBConservation(t *testing.T) {
	r := buildRig(t, 8, 40, 2, dfs.RandomPlacement{})
	a, _ := core.RankStatic{}.Assign(r.prob)
	res, err := RunAssignment(r.opts("rank"), a)
	if err != nil {
		t.Fatal(err)
	}
	var served float64
	for _, s := range res.ServedMB {
		served += s
	}
	if math.Abs(served-40*64) > 1e-6 {
		t.Fatalf("served %v MB, want %v", served, 40*64.0)
	}
}

func TestFullLocalityRunsFast(t *testing.T) {
	// With round-robin placement and the Opass planner, every read is local
	// and each process reads 5 chunks sequentially from its own disk with
	// minor interference: makespan should be close to 5 sequential
	// uncontended local reads.
	r := buildRig(t, 8, 40, 3, dfs.RoundRobinPlacement{})
	a, err := core.SingleData{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	if a.LocalityFraction() != 1 {
		t.Fatalf("planned locality %v, want 1", a.LocalityFraction())
	}
	res, err := RunAssignment(r.opts("opass"), a)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalFraction() != 1 {
		t.Fatalf("executed locality %v, want 1", res.LocalFraction())
	}
	perRead := r.topo.UncontendedLocalRead(64)
	want := 5 * perRead
	if math.Abs(res.Makespan-want) > 0.25 {
		t.Fatalf("makespan = %v, want about %v (3 replicas can add mild sharing)", res.Makespan, want)
	}
}

func TestOpassBeatsBaselineEndToEnd(t *testing.T) {
	// The headline claim: on random placement, Opass's executed average I/O
	// time and makespan beat the rank-static baseline.
	rBase := buildRig(t, 16, 160, 4, dfs.RandomPlacement{})
	base, _ := core.RankStatic{}.Assign(rBase.prob)
	resBase, err := RunAssignment(rBase.opts("rank"), base)
	if err != nil {
		t.Fatal(err)
	}
	rOp := buildRig(t, 16, 160, 4, dfs.RandomPlacement{})
	op, _ := core.SingleData{}.Assign(rOp.prob)
	resOp, err := RunAssignment(rOp.opts("opass"), op)
	if err != nil {
		t.Fatal(err)
	}
	if resOp.Makespan >= resBase.Makespan {
		t.Fatalf("opass makespan %v >= baseline %v", resOp.Makespan, resBase.Makespan)
	}
	if resOp.LocalFraction() <= resBase.LocalFraction() {
		t.Fatalf("opass locality %v <= baseline %v", resOp.LocalFraction(), resBase.LocalFraction())
	}
	meanOf := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if meanOf(resOp.IOTimes()) >= meanOf(resBase.IOTimes()) {
		t.Fatal("opass mean I/O time not better than baseline")
	}
}

func TestRecordsConsistentWithPlacement(t *testing.T) {
	r := buildRig(t, 8, 40, 5, dfs.RandomPlacement{})
	a, _ := core.RankStatic{}.Assign(r.prob)
	res, _ := RunAssignment(r.opts("rank"), a)
	for _, rec := range res.Records {
		c := r.fs.Chunk(rec.Chunk)
		if !c.HostedOn(rec.SrcNode) {
			t.Fatalf("read served by node %d that does not host chunk %d", rec.SrcNode, rec.Chunk)
		}
		if rec.Local != (rec.SrcNode == rec.DstNode) {
			t.Fatalf("record local flag inconsistent: %+v", rec)
		}
		if rec.DstNode != r.prob.ProcNode[rec.Proc] {
			t.Fatalf("record DstNode %d != process node", rec.DstNode)
		}
		if rec.End <= rec.Start {
			t.Fatalf("non-positive read duration: %+v", rec)
		}
	}
}

func TestComputePhaseExtendsMakespan(t *testing.T) {
	r1 := buildRig(t, 4, 8, 6, dfs.RoundRobinPlacement{})
	a1, _ := core.SingleData{}.Assign(r1.prob)
	res1, _ := RunAssignment(r1.opts("io-only"), a1)

	r2 := buildRig(t, 4, 8, 6, dfs.RoundRobinPlacement{})
	a2, _ := core.SingleData{}.Assign(r2.prob)
	opts := r2.opts("with-compute")
	opts.ComputeTime = func(task int) float64 { return 1.0 }
	res2, err := RunAssignment(opts, a2)
	if err != nil {
		t.Fatal(err)
	}
	// Each process runs 2 tasks: makespan grows by ~2 s of compute.
	if d := res2.Makespan - res1.Makespan; math.Abs(d-2.0) > 0.05 {
		t.Fatalf("compute extended makespan by %v, want ~2.0", d)
	}
}

func TestDynamicSourcesDrainAllTasks(t *testing.T) {
	r := buildRig(t, 8, 40, 7, dfs.RandomPlacement{})
	a, _ := core.SingleData{}.Assign(r.prob)
	sched, err := core.NewDynamicScheduler(r.prob, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(r.opts("opass-dynamic"), sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 40 {
		t.Fatalf("dynamic ran %d tasks, want 40", res.TasksRun)
	}

	r2 := buildRig(t, 8, 40, 7, dfs.RandomPlacement{})
	res2, err := Run(r2.opts("random-dynamic"), core.NewRandomDispatcher(r2.prob, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res2.TasksRun != 40 {
		t.Fatalf("random dynamic ran %d tasks, want 40", res2.TasksRun)
	}
}

func TestSequentialRoundsShareClock(t *testing.T) {
	r := buildRig(t, 4, 8, 8, dfs.RoundRobinPlacement{})
	a, _ := core.SingleData{}.Assign(r.prob)
	res1, err := RunAssignment(r.opts("round1"), a)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunAssignment(r.opts("round2"), a)
	if err != nil {
		t.Fatal(err)
	}
	// Results are reported relative to each round's start.
	if math.Abs(res1.Makespan-res2.Makespan) > 1e-6 {
		t.Fatalf("identical rounds differ: %v vs %v", res1.Makespan, res2.Makespan)
	}
	if res2.Records[0].Start < 0 {
		t.Fatal("round 2 records must be relative to its own start")
	}
}

func TestRunValidatesOptions(t *testing.T) {
	r := buildRig(t, 4, 8, 9, dfs.RandomPlacement{})
	if _, err := Run(Options{}, NewListSource(nil)); err == nil {
		t.Fatal("empty options must fail")
	}
	bad := r.opts("bad")
	bad.Problem = &core.Problem{ProcNode: []int{99}, Tasks: r.prob.Tasks, FS: r.fs}
	if _, err := Run(bad, NewListSource(make([][]int, 1))); err == nil {
		t.Fatal("process on nonexistent node must fail")
	}
}

// TestRunRejectsProblemOnAnotherStore: the run crashes, repairs and replans
// against one file system, so a problem whose placement reads another — even
// a twin built from the same seed — is refused on both entry points.
func TestRunRejectsProblemOnAnotherStore(t *testing.T) {
	r, twin := buildRig(t, 4, 8, 9, dfs.RandomPlacement{}), buildRig(t, 4, 8, 9, dfs.RandomPlacement{})
	a, err := core.SingleData{Seed: 9}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	opts := r.opts("opass")
	opts.FS = twin.fs
	if _, err := RunAssignment(opts, a); err == nil || !strings.Contains(err.Error(), "different file system") {
		t.Fatalf("Run over another store: err = %v", err)
	}
	jobs := []JobSpec{{Problem: r.prob, Source: NewListSource(a.Lists)}}
	if _, err := RunJobsScheduled(context.Background(), r.topo, twin.fs, jobs, nil); err == nil || !strings.Contains(err.Error(), "different file system") {
		t.Fatalf("RunJobsScheduled over another store: err = %v", err)
	}
	if _, err := RunJobsScheduled(context.Background(), r.topo, r.fs, jobs, nil); err != nil {
		t.Fatalf("RunJobsScheduled over the problem's own store: %v", err)
	}
}

func TestListSourcePanicsOnUnknownProc(t *testing.T) {
	s := NewListSource([][]int{{0}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Next(3)
}

// TestPropertyEngineInvariants fuzzes small runs and checks conservation
// invariants: all tasks run once, served MB equals read MB, makespan is at
// least the per-process lower bound.
func TestPropertyEngineInvariants(t *testing.T) {
	prop := func(seed int64, rawNodes, rawPer uint8) bool {
		nodes := 4 + int(rawNodes)%8
		per := 1 + int(rawPer)%4
		r := buildRig(t, nodes, nodes*per, seed, dfs.RandomPlacement{})
		a, err := core.SingleData{Seed: seed}.Assign(r.prob)
		if err != nil {
			t.Error(err)
			return false
		}
		res, err := RunAssignment(r.opts("fuzz"), a)
		if err != nil {
			t.Error(err)
			return false
		}
		if res.TasksRun != nodes*per || len(res.Records) != nodes*per {
			t.Errorf("seed %d: ran %d tasks, want %d", seed, res.TasksRun, nodes*per)
			return false
		}
		var served, read float64
		for _, s := range res.ServedMB {
			served += s
		}
		for _, rec := range res.Records {
			read += rec.SizeMB
		}
		if math.Abs(served-read) > 1e-6 {
			t.Errorf("seed %d: served %v != read %v", seed, served, read)
			return false
		}
		// Makespan >= any single process's sequential uncontended time.
		perRead := r.topo.UncontendedLocalRead(64)
		if res.Makespan < float64(per)*perRead-1e-6 {
			t.Errorf("seed %d: makespan %v below lower bound %v", seed, res.Makespan, float64(per)*perRead)
			return false
		}
		for _, fin := range res.ProcFinish {
			if fin > res.Makespan+1e-9 {
				t.Errorf("seed %d: process finished after makespan", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
