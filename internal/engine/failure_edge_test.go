package engine

import (
	"testing"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
)

// A failure at t=0 fires before the first read completes: every pick must
// avoid the node from the start and the job still runs to completion.
func TestFailureAtTimeZero(t *testing.T) {
	r := buildRig(t, 8, 40, 61, dfs.RandomPlacement{})
	a, err := core.SingleData{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	opts := r.opts("opass")
	opts.Failures = []NodeFailure{{Node: 4, At: 0}}
	res, err := RunAssignment(opts, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 40 {
		t.Fatalf("tasks run = %d, want 40", res.TasksRun)
	}
	for _, rec := range res.Records {
		if rec.SrcNode == 4 && rec.End > 1e-9 {
			t.Fatalf("read served by node dead since t=0: %+v", rec)
		}
	}
	if r.topo.Net().Active() != 0 {
		t.Fatal("network not idle after run")
	}
}

// Crashing a node that serves no read and hosts no needed replica must not
// retry anything or slow the job down.
func TestFailureOfIdleNodeCausesNoRetries(t *testing.T) {
	// Clustered placement keeps every replica on nodes 0..2; node 7 is a
	// pure bystander.
	r := buildRig(t, 8, 16, 62, dfs.ClusteredPlacement{})
	a, err := core.RankStatic{}.Assign(r.prob)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunAssignment(r.opts("rank"), a)
	if err != nil {
		t.Fatal(err)
	}

	r2 := buildRig(t, 8, 16, 62, dfs.ClusteredPlacement{})
	a2, err := core.RankStatic{}.Assign(r2.prob)
	if err != nil {
		t.Fatal(err)
	}
	opts := r2.opts("rank")
	opts.Failures = []NodeFailure{{Node: 7, At: 0.5}}
	res, err := RunAssignment(opts, a2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 0 {
		t.Fatalf("idle-node crash caused %d retries", res.Retries)
	}
	if res.TasksRun != 16 {
		t.Fatalf("tasks run = %d, want 16", res.TasksRun)
	}
	if res.Makespan != base.Makespan {
		t.Fatalf("idle-node crash changed the makespan: %v vs %v", res.Makespan, base.Makespan)
	}
}

// When every replica holder crashes the run aborts with a data-loss error —
// and the abort must tear down all in-flight flows so the shared topology
// can host another job immediately.
func TestFailureAllReplicasCrashedNetworkStaysReusable(t *testing.T) {
	topo := cluster.New(8, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: 63, Placement: dfs.ClusteredPlacement{}})
	if _, err := fs.Create("/data", 16*64); err != nil {
		t.Fatal(err)
	}
	procNode := []int{0, 1, 2, 3, 4, 5, 6, 7}
	prob, err := core.SingleDataProblem(fs, []string{"/data"}, procNode)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.RankStatic{}.Assign(prob)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Topo: topo, FS: fs, Problem: prob, Strategy: "rank"}
	opts.Failures = []NodeFailure{
		{Node: 0, At: 0.1}, {Node: 1, At: 0.1}, {Node: 2, At: 0.1},
	}
	if _, err := RunAssignment(opts, a); err == nil {
		t.Fatal("expected data-loss error")
	}
	if n := topo.Net().Active(); n != 0 {
		t.Fatalf("aborted run left %d flows active", n)
	}

	// A second, healthy job on the very same topology runs to completion.
	fs2 := dfs.New(topo, dfs.Config{Seed: 64, Placement: dfs.RandomPlacement{}})
	if _, err := fs2.Create("/data", 16*64); err != nil {
		t.Fatal(err)
	}
	prob2, err := core.SingleDataProblem(fs2, []string{"/data"}, procNode)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.SingleData{}.Assign(prob2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAssignment(Options{Topo: topo, FS: fs2, Problem: prob2, Strategy: "opass"}, a2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 16 {
		t.Fatalf("second job ran %d tasks, want 16", res.TasksRun)
	}
	if topo.Net().Active() != 0 {
		t.Fatal("network not idle after second job")
	}
}

// gatedSource hands process 0 task 1 immediately and parks process 1 in
// PollWait until the cluster stalls (process 0 has finished), then hands it
// task 0. It forces the engine through the waiting-process path with a node
// crash happening while the waiter sleeps. (Process 0 must be the eager
// one: the engine polls it first, before any work is in flight, and a
// source may not answer PollWait while the cluster is stalled.)
type gatedSource struct {
	handed [2]bool
}

func (g *gatedSource) Next(int) (int, bool) { panic("engine must use Poll") }

func (g *gatedSource) Poll(proc int, stalled bool) (int, PollState) {
	if proc == 0 {
		if !g.handed[0] {
			g.handed[0] = true
			return 1, PollTask
		}
		return 0, PollDone
	}
	if !stalled && !g.handed[1] {
		return 0, PollWait
	}
	if !g.handed[1] {
		g.handed[1] = true
		return 0, PollTask
	}
	return 0, PollDone
}

// A process parked in PollWait wakes up to find that a replica holder of
// its next task crashed while it slept. The read must fail over to a
// surviving replica instead of hanging or touching the dead node.
func TestFailureOfNodeWaitingProcDependsOn(t *testing.T) {
	topo := cluster.New(8, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: 65})
	if _, err := fs.CreateChunksReplicated("/data", []float64{64, 64}, [][]int{{2, 3, 4}, {5, 6, 7}}); err != nil {
		t.Fatal(err)
	}
	prob, err := core.SingleDataProblem(fs, []string{"/data"}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Topo: topo, FS: fs, Problem: prob, Strategy: "gated"}
	opts.Failures = []NodeFailure{{Node: 2, At: 0.2}}
	res, err := Run(opts, &gatedSource{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 2 {
		t.Fatalf("tasks run = %d, want 2", res.TasksRun)
	}
	for _, rec := range res.Records {
		if rec.Task == 0 {
			if rec.SrcNode == 2 {
				t.Fatalf("woken waiter read from the crashed node: %+v", rec)
			}
			if rec.Start < 0.2 {
				t.Fatalf("task 0 started at %v, before the wake-up event", rec.Start)
			}
		}
	}
	if topo.Net().Active() != 0 {
		t.Fatal("network not idle after run")
	}
}
