package engine

import (
	"reflect"
	"testing"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
)

// twoJobRig builds two independent single-data problems over one shared
// cluster/fs: job A on files /a, job B on /b.
func twoJobRig(t testing.TB, nodes, chunksEach int, seed int64) (*rig, *core.Problem, *core.Problem) {
	t.Helper()
	r := buildRig(t, nodes, chunksEach, seed, dfs.RandomPlacement{})
	if _, err := r.fs.Create("/other", float64(chunksEach)*64); err != nil {
		t.Fatal(err)
	}
	probB, err := core.SingleDataProblem(r.fs, []string{"/other"}, r.prob.ProcNode)
	if err != nil {
		t.Fatal(err)
	}
	return r, r.prob, probB
}

func TestRunJobsBothComplete(t *testing.T) {
	r, probA, probB := twoJobRig(t, 8, 40, 71)
	aA, _ := core.SingleData{}.Assign(probA)
	aB, _ := core.RankStatic{}.Assign(probB)
	results, err := RunJobs(r.topo, r.fs, []JobSpec{
		{Problem: probA, Source: NewListSource(aA.Lists), Strategy: "opass"},
		{Problem: probB, Source: NewListSource(aB.Lists), Strategy: "rank"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i, res := range results {
		if res.TasksRun != 40 {
			t.Fatalf("job %d ran %d tasks", i, res.TasksRun)
		}
	}
}

func TestInterferenceSlowsOpass(t *testing.T) {
	// The §V-C1 point: a co-running locality-oblivious job contends for the
	// same disks, so Opass's job runs slower than it would alone — but
	// still faster than the baseline job sharing the cluster with it.
	rAlone := buildRig(t, 8, 40, 72, dfs.RandomPlacement{})
	aAlone, _ := core.SingleData{}.Assign(rAlone.prob)
	alone, err := RunAssignment(rAlone.opts("opass"), aAlone)
	if err != nil {
		t.Fatal(err)
	}

	r, probA, probB := twoJobRig(t, 8, 40, 72)
	aA, _ := core.SingleData{}.Assign(probA)
	aB, _ := core.RankStatic{}.Assign(probB)
	results, err := RunJobs(r.topo, r.fs, []JobSpec{
		{Problem: probA, Source: NewListSource(aA.Lists), Strategy: "opass"},
		{Problem: probB, Source: NewListSource(aB.Lists), Strategy: "rank-bg"},
	})
	if err != nil {
		t.Fatal(err)
	}
	shared := results[0]
	if shared.Makespan <= alone.Makespan {
		t.Fatalf("co-running job did not slow opass: %v vs alone %v",
			shared.Makespan, alone.Makespan)
	}
	// With max-min fair sharing the two jobs' last flows converge, so
	// makespans can tie; the robust signal is per-read time: Opass's reads
	// (local, one stream per disk plus interference) stay well below the
	// oblivious neighbor's contended remote reads.
	meanOf := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mo, mb := meanOf(shared.IOTimes()), meanOf(results[1].IOTimes()); mo >= mb {
		t.Fatalf("opass mean I/O %v not below background job's %v", mo, mb)
	}
}

func TestRunJobsStaggeredArrival(t *testing.T) {
	r, probA, probB := twoJobRig(t, 8, 16, 73)
	aA, _ := core.SingleData{}.Assign(probA)
	aB, _ := core.SingleData{}.Assign(probB)
	results, err := RunJobs(r.topo, r.fs, []JobSpec{
		{Problem: probA, Source: NewListSource(aA.Lists), Strategy: "first"},
		{Problem: probB, Source: NewListSource(aB.Lists), Strategy: "late", StartAt: 5.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The late job's first read cannot start before t=5.
	for _, rec := range results[1].Records {
		if rec.Start < 5.0-1e-9 {
			t.Fatalf("late job read started at %v", rec.Start)
		}
	}
	if results[1].TasksRun != 16 {
		t.Fatalf("late job ran %d tasks", results[1].TasksRun)
	}
}

func TestRunJobsMatchesSingleRun(t *testing.T) {
	// One job through RunJobs behaves like Run.
	r1 := buildRig(t, 8, 24, 74, dfs.RandomPlacement{})
	a1, _ := core.SingleData{}.Assign(r1.prob)
	single, err := RunAssignment(r1.opts("x"), a1)
	if err != nil {
		t.Fatal(err)
	}
	r2 := buildRig(t, 8, 24, 74, dfs.RandomPlacement{})
	a2, _ := core.SingleData{}.Assign(r2.prob)
	multi, err := RunJobs(r2.topo, r2.fs, []JobSpec{
		{Problem: r2.prob, Source: NewListSource(a2.Lists), Strategy: "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := multi[0]
	if single.Makespan != m.Makespan || single.TasksRun != m.TasksRun {
		t.Fatalf("makespan/tasks differ: %v/%d vs %v/%d", single.Makespan, single.TasksRun, m.Makespan, m.TasksRun)
	}
	if !reflect.DeepEqual(single.Records, m.Records) {
		t.Fatalf("records differ:\n%+v\n%+v", single.Records, m.Records)
	}
	if !reflect.DeepEqual(single.ServedMB, m.ServedMB) {
		t.Fatalf("served MB differ: %v vs %v", single.ServedMB, m.ServedMB)
	}
	if !reflect.DeepEqual(single.ProcFinish, m.ProcFinish) {
		t.Fatalf("process finish times differ: %v vs %v", single.ProcFinish, m.ProcFinish)
	}
}

func TestRunJobsWithDynamicSources(t *testing.T) {
	r, probA, probB := twoJobRig(t, 8, 24, 75)
	aA, _ := core.SingleData{}.Assign(probA)
	schedA, _ := core.NewDynamicScheduler(probA, aA)
	results, err := RunJobs(r.topo, r.fs, []JobSpec{
		{Problem: probA, Source: schedA, Strategy: "opass-dyn"},
		{Problem: probB, Source: core.NewRandomDispatcher(probB, 1), Strategy: "random-dyn"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].TasksRun != 24 || results[1].TasksRun != 24 {
		t.Fatalf("task counts: %d, %d", results[0].TasksRun, results[1].TasksRun)
	}
}

func TestRunJobsValidation(t *testing.T) {
	r := buildRig(t, 4, 8, 76, dfs.RandomPlacement{})
	if _, err := RunJobs(nil, r.fs, nil); err == nil {
		t.Fatal("nil topo must fail")
	}
	if _, err := RunJobs(r.topo, r.fs, nil); err == nil {
		t.Fatal("no jobs must fail")
	}
	if _, err := RunJobs(r.topo, r.fs, []JobSpec{{}}); err == nil {
		t.Fatal("empty job must fail")
	}
	a, _ := core.RankStatic{}.Assign(r.prob)
	if _, err := RunJobs(r.topo, r.fs, []JobSpec{
		{Problem: r.prob, Source: NewListSource(a.Lists), StartAt: -1},
	}); err == nil {
		t.Fatal("negative start must fail")
	}
}

func TestMultipleProcsPerNode(t *testing.T) {
	// Marmot has dual-core nodes; run two processes per node. The engine
	// must handle repeated ProcNode entries: both procs contend for their
	// shared disk but read locally.
	topo := cluster.New(4, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: 77, Placement: dfs.RoundRobinPlacement{}})
	if _, err := fs.Create("/d", 16*64); err != nil {
		t.Fatal(err)
	}
	procNode := []int{0, 0, 1, 1, 2, 2, 3, 3} // two procs per node
	prob, err := core.SingleDataProblem(fs, []string{"/d"}, procNode)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.SingleData{}.Assign(prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAssignment(Options{Topo: topo, FS: fs, Problem: prob, Strategy: "2-per-node"}, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 16 {
		t.Fatalf("ran %d tasks", res.TasksRun)
	}
	// Round-robin placement + 2 co-located procs: full locality achievable.
	if res.LocalFraction() != 1.0 {
		t.Fatalf("locality %v", res.LocalFraction())
	}
	// Each proc's 2 local reads share the disk with its sibling: makespan
	// at least 2 uncontended local reads, below 4 fully-serial ones + slack.
	lo := 2 * topo.UncontendedLocalRead(64)
	hi := 4*topo.UncontendedLocalRead(64) + 1
	if res.Makespan < lo-1e-9 || res.Makespan > hi {
		t.Fatalf("makespan %v outside [%v,%v]", res.Makespan, lo, hi)
	}
}

func TestRunAssignmentRejectsInvalidAssignment(t *testing.T) {
	r := buildRig(t, 4, 8, 79, dfs.RandomPlacement{})
	bad := &core.Assignment{Owner: []int{0}, Lists: make([][]int, 4)}
	if _, err := RunAssignment(r.opts("bad"), bad); err == nil {
		t.Fatal("invalid assignment must be rejected")
	}
	// Default strategy label applied when empty.
	a, _ := core.RankStatic{}.Assign(r.prob)
	opts := r.opts("")
	res, err := RunAssignment(opts, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "static" {
		t.Fatalf("default strategy label %q", res.Strategy)
	}
}

func TestRunJobsDelaySource(t *testing.T) {
	// A PollingSource (delay dispatcher) inside a concurrent run exercises
	// the multi-job waiting machinery.
	r, probA, probB := twoJobRig(t, 8, 24, 80)
	results, err := RunJobs(r.topo, r.fs, []JobSpec{
		{Problem: probA, Source: delaySource{probA}, Strategy: "greedy-local"},
		{Problem: probB, Source: core.NewRandomDispatcher(probB, 1), Strategy: "random"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].TasksRun != 24 || results[1].TasksRun != 24 {
		t.Fatalf("tasks: %d, %d", results[0].TasksRun, results[1].TasksRun)
	}
}

// delaySource is a minimal PollingSource: serves the lowest remaining task
// co-located with the asker, waiting one poll when none is (then yielding
// anything).
type delaySource struct{ p *core.Problem }

var delayState = map[*core.Problem]*delayRT{}

type delayRT struct {
	remaining map[int]bool
	skipped   map[int]bool
}

func (d delaySource) rt() *delayRT {
	rt, ok := delayState[d.p]
	if !ok {
		rt = &delayRT{remaining: map[int]bool{}, skipped: map[int]bool{}}
		for i := range d.p.Tasks {
			rt.remaining[i] = true
		}
		delayState[d.p] = rt
	}
	return rt
}

func (d delaySource) Next(proc int) (int, bool) {
	t, st := d.Poll(proc, true)
	return t, st == PollTask
}

func (d delaySource) Poll(proc int, stalled bool) (int, PollState) {
	rt := d.rt()
	if len(rt.remaining) == 0 {
		return 0, PollDone
	}
	best := -1
	for t := range rt.remaining {
		if d.p.CoLocatedMB(proc, t) > 0 && (best == -1 || t < best) {
			best = t
		}
	}
	if best == -1 {
		if !stalled && !rt.skipped[proc] {
			rt.skipped[proc] = true
			return 0, PollWait
		}
		for t := range rt.remaining {
			if best == -1 || t < best {
				best = t
			}
		}
	}
	delete(rt.remaining, best)
	return best, PollTask
}
