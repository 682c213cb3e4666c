package globalsched

import (
	"context"
	"math"
	"slices"
	"testing"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
	"opass/internal/workload"
)

func TestNewValidation(t *testing.T) {
	for _, nodes := range []int{0, -1} {
		if _, err := New(nodes, 0); err == nil {
			t.Errorf("New accepted a %d-node cluster", nodes)
		}
	}
	if _, err := New(8, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBiasesResidualShape(t *testing.T) {
	s, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3}

	if b := s.biases(100, all); b != nil {
		t.Fatalf("empty cluster produced bias %v, want nil", b)
	}

	s.load = []float64{300, 100, 0, 0}
	b := s.biases(100, all)
	if len(b) != len(all) {
		t.Fatalf("bias %v for %d processes", b, len(all))
	}
	// Hotter nodes must be strictly less attractive, idle nodes maximally so.
	if !(b[0] < b[1] && b[1] < b[2]) {
		t.Fatalf("bias %v not monotone in load %v", b, s.load)
	}
	if b[2] != 1 || b[3] != 1 {
		t.Fatalf("idle nodes biased to %v/%v, want 1", b[2], b[3])
	}
	for i, v := range b {
		if v < minBias || v > 1 {
			t.Fatalf("bias[%d] = %v outside [minBias, 1]", i, v)
		}
	}

	// One weight per process, not per node: processes sharing a node share
	// its bias, and a node with no process has no entry.
	shared := s.biases(100, []int{1, 0, 1, 2})
	want := []float64{b[1], b[0], b[1], b[2]}
	if !slices.Equal(shared, want) {
		t.Fatalf("processes on nodes [1 0 1 2] weighted %v, want %v", shared, want)
	}

	// Window-relative normalization: when every node the job can reach is
	// at or above the ideal, there is no contrast to express — even though
	// an unreachable node still has headroom.
	s.load = []float64{500, 500, 0, 0}
	if b := s.biases(100, []int{0, 1}); b != nil {
		t.Fatalf("all-hot window produced bias %v, want nil", b)
	}
	// ...but the same cluster with a reachable cold node does bias.
	if b := s.biases(100, []int{0, 2}); len(b) != 2 || !(b[0] < b[1]) {
		t.Fatalf("reachable cold node produced bias %v, want the hot process below the cold one", b)
	}
}

// schedRig builds a small cluster with one planned job for the scheduler.
func schedRig(t *testing.T, nodes, chunksPerProc int, seed int64) (*cluster.Topology, *dfs.FileSystem, *core.Problem) {
	t.Helper()
	topo := cluster.New(nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: seed})
	if _, err := fs.Create("/data", float64(nodes*chunksPerProc)*64); err != nil {
		t.Fatal(err)
	}
	procs := make([]int, nodes)
	for i := range procs {
		procs[i] = i
	}
	prob, err := core.SingleDataProblem(fs, []string{"/data"}, procs)
	if err != nil {
		t.Fatal(err)
	}
	return topo, fs, prob
}

// drained pulls every process's task list out of the source JobArriving
// returned: the plan the scheduler handed the engine.
func drained(src engine.TaskSource, p *core.Problem) *core.Assignment {
	a := &core.Assignment{Owner: make([]int, len(p.Tasks)), Lists: make([][]int, p.NumProcs())}
	for proc := range a.Lists {
		for task, ok := src.Next(proc); ok; task, ok = src.Next(proc) {
			a.Lists[proc] = append(a.Lists[proc], task)
			a.Owner[task] = proc
		}
	}
	return a
}

func TestJobArrivingPlansAndCharges(t *testing.T) {
	_, _, prob := schedRig(t, 8, 4, 5)
	s, err := New(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := s.JobArriving(0, engine.JobSpec{Problem: prob}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src == nil {
		t.Fatal("JobArriving returned no source")
	}
	if err := drained(src, prob).Validate(prob); err != nil {
		t.Fatalf("scheduler's plan invalid: %v", err)
	}
	var total float64
	for _, mb := range s.load {
		total += mb
	}
	if math.Abs(total-prob.TotalMB()) > 1e-6 {
		t.Fatalf("planned charge sums to %v MB, job is %v MB", total, prob.TotalMB())
	}

	// Reconciliation replaces the planned charge with the actual profile.
	actual := make([]float64, 8)
	actual[3] = 123
	s.JobFinished(0, actual)
	for n, mb := range s.load {
		want := 0.0
		if n == 3 {
			want = 123
		}
		if math.Abs(mb-want) > 1e-6 {
			t.Fatalf("load[%d] = %v after reconciliation, want %v", n, mb, want)
		}
	}
	// A second JobFinished for the same job is a no-op.
	s.JobFinished(0, actual)
	if math.Abs(s.load[3]-123) > 1e-6 {
		t.Fatalf("double reconciliation changed load to %v", s.load[3])
	}
}

func TestJobArrivingRejectsForeignNodes(t *testing.T) {
	_, _, prob := schedRig(t, 8, 2, 6)
	s, err := New(4, 0) // cluster smaller than the problem's nodes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.JobArriving(0, engine.JobSpec{Problem: prob}, 0); err == nil {
		t.Fatal("JobArriving accepted processes outside the cluster")
	}
}

func TestPickRemoteLeastServed(t *testing.T) {
	s, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.ReadStarted(0, 100)
	s.ReadStarted(2, 50)
	if got := s.PickRemote(3, []int{0, 2}, 64); got != 2 {
		t.Fatalf("PickRemote = %d, want least-served 2", got)
	}
	// Ties break toward the first (lowest-id) holder, deterministically.
	if got := s.PickRemote(3, []int{1, 3}, 64); got != 1 {
		t.Fatalf("PickRemote tie = %d, want 1", got)
	}
	if s.served[0] != 100 || s.served[2] != 50 {
		t.Fatalf("served tally = %v", s.served)
	}
}

func TestScheduledRunEndToEnd(t *testing.T) {
	// Whole path: two staggered jobs planned by the scheduler, executed by
	// the engine, reconciled on finish. Served tally must equal the actual
	// per-node service profile of the run.
	topo, fs, probA := schedRig(t, 8, 4, 7)
	if _, err := fs.Create("/other", 8*4*64); err != nil {
		t.Fatal(err)
	}
	probB, err := core.SingleDataProblem(fs, []string{"/other"}, probA.ProcNode)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.RunJobsScheduled(context.Background(), topo, fs, []engine.JobSpec{
		{Problem: probA, Strategy: "a"},
		{Problem: probB, Strategy: "b", StartAt: 2},
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 8)
	for _, res := range results {
		for n, mb := range res.ServedMB {
			want[n] += mb
		}
	}
	for n := range want {
		if math.Abs(s.served[n]-want[n]) > 1e-6 {
			t.Fatalf("served[%d] = %v, run says %v", n, s.served[n], want[n])
		}
	}
	// Both jobs drained, so the reconciled load equals the actual profile.
	for n := range want {
		if math.Abs(s.load[n]-want[n]) > 1e-6 {
			t.Fatalf("load[%d] = %v after both jobs finished, want %v", n, s.load[n], want[n])
		}
	}
}

// TestMultiInputJobsUseExactPlanner: a multi-input job arriving on a loaded
// cluster is planned by core.MultiExact under the scheduler's node biases,
// the same quota weights a single-input job gets.
func TestMultiInputJobsUseExactPlanner(t *testing.T) {
	rig, err := workload.MultiSpec{Nodes: 8, TasksPerProc: 4, Seed: 9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(8, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.load = []float64{900, 600, 300, 0, 0, 0, 0, 0}
	weights := s.biases(rig.Prob.TotalMB(), rig.Prob.ProcNode)
	if weights == nil {
		t.Fatal("a loaded cluster produced no biases")
	}
	want, err := core.MultiExact{Seed: 9 + 1, Weights: weights}.Assign(rig.Prob)
	if err != nil {
		t.Fatal(err)
	}
	src, err := s.JobArriving(1, engine.JobSpec{Problem: rig.Prob}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drained(src, rig.Prob)
	if err := got.Validate(rig.Prob); err != nil {
		t.Fatalf("multi-input plan invalid: %v", err)
	}
	if !slices.EqualFunc(got.Lists, want.Lists, slices.Equal[[]int]) {
		t.Fatalf("scheduler planned lists %v, weighted MultiExact %v", got.Lists, want.Lists)
	}
}
