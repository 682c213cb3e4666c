package engine

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"opass/internal/core"
	"opass/internal/dfs"
)

// simulateFaultsRig is the benchmark's simulate-faults workload at 128
// processes over chunks single-chunk tasks under an Opass plan: one
// permanent crash at t=3 s, one half-speed node from t=1 s, replan and
// repair on (repair 2 s after the crash). A crash rewrites placement, so
// every run needs its own rig.
func simulateFaultsRig(tb testing.TB, chunks int) (*rig, Options, *core.Assignment) {
	const (
		nodes = 128
		seed  = 1
	)
	r := buildRig(tb, nodes, chunks, seed, dfs.RandomPlacement{})
	a, err := core.SingleData{Seed: seed}.Assign(r.prob)
	if err != nil {
		tb.Fatal(err)
	}
	opts := r.opts("opass")
	opts.Failures = []NodeFailure{{Node: 17, At: 3}}
	opts.Degradations = []NodeDegradation{{Node: 90, At: 1, DiskFactor: 0.5, NICFactor: 0.5}}
	opts.Replan, opts.Repair, opts.RepairDelay, opts.ReplanSeed = true, true, 2, seed
	return r, opts, a
}

// BenchmarkSimulateFaults times the engine stage of the benchmark's
// simulate-faults workload (simulateFaultsRig at 1,280 tasks). Planning and
// fixture construction are outside the timer; us/read is what bench/
// reports as engine.us_per_read.
func BenchmarkSimulateFaults(b *testing.B) {
	const chunks = 1280
	var reads, events int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, opts, a := simulateFaultsRig(b, chunks)
		b.StartTimer()
		res, err := RunAssignment(opts, a)
		if err != nil {
			b.Fatal(err)
		}
		if res.TasksRun != chunks || res.Replans == 0 {
			b.Fatalf("tasks run = %d, replans = %d: not the simulate-faults shape", res.TasksRun, res.Replans)
		}
		reads += int64(len(res.Records))
		events += r.topo.Net().Completed()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(reads), "us/read")
	b.ReportMetric(float64(events)/float64(b.N), "flows/op")
}

// TestRunLeavesThePlanAlone: NewListSource shares the plan's per-process
// lists with the caller, so a run that replans and repairs must install its
// new backlogs without writing into them.
func TestRunLeavesThePlanAlone(t *testing.T) {
	_, opts, a := simulateFaultsRig(t, 1280)
	want := make([][]int, len(a.Lists))
	for i, l := range a.Lists {
		want[i] = slices.Clone(l)
	}
	res, err := RunAssignment(opts, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans == 0 || res.DeltaReplannedTasks == 0 {
		t.Fatalf("%d replans moved %d tasks: not the simulate-faults shape", res.Replans, res.DeltaReplannedTasks)
	}
	if !slices.EqualFunc(a.Lists, want, slices.Equal[[]int]) {
		t.Fatal("the run wrote into the plan's lists")
	}
}

// TestSimulatedReadAllocatesNothing: a read costs the engine no allocation
// — no per-flow record, label or path copy — and a repair attaching to a
// node's index row stays in place. Four times the tasks on the same 128
// processes (3,840 more reads, each retired into the next) may add only what
// the larger replans allocate: at most 16 objects (4, now and then 9). Pools
// are emptied and the collector held off, so both runs count the same way.
func TestSimulatedReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	mallocs := func(chunks int) uint64 {
		_, opts, a := simulateFaultsRig(t, chunks)
		runtime.GC()
		runtime.GC() // a pooled buffer survives one collection, not two
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunAssignment(opts, a)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.TasksRun != chunks || res.Retries == 0 || res.Replans == 0 || res.RepairedChunks == 0 {
			t.Fatalf("%d tasks: run %d, retries %d, replans %d, repaired %d: not the simulate-faults shape",
				chunks, res.TasksRun, res.Retries, res.Replans, res.RepairedChunks)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := mallocs(1280), mallocs(5120)
	t.Logf("1,280 tasks: %d allocations; 5,120 tasks: %d", small, large)
	if large > small+16 {
		t.Fatalf("5,120 tasks allocate %d objects, 1,280 tasks %d: %d more, want at most 16", large, small, large-small)
	}
}

// TestResultRelease: a released result hands its storage to the next run,
// which answers exactly as the first run did on fresh storage, shorter and
// longer runs in between; the released result reads empty, a second Release
// panics and releasing nil does nothing.
func TestResultRelease(t *testing.T) {
	type outcome struct {
		records              []ReadRecord
		served, finish, util []float64
		peak, failed         []int
		makespan             float64
	}
	run := func(chunks int) (*Result, outcome) {
		_, opts, a := simulateFaultsRig(t, chunks)
		res, err := RunAssignment(opts, a)
		if err != nil {
			t.Fatal(err)
		}
		return res, outcome{slices.Clone(res.Records), slices.Clone(res.ServedMB), slices.Clone(res.ProcFinish),
			slices.Clone(res.DiskUtilization), slices.Clone(res.PeakConcurrentReads), slices.Clone(res.FailedNodes), res.Makespan}
	}
	first, want := run(1280)
	first.Release()
	if first.Records != nil || first.ServedMB != nil || first.ProcFinish != nil || first.DiskUtilization != nil || first.PeakConcurrentReads != nil {
		t.Fatal("a released result still reads its storage")
	}
	for _, chunks := range []int{640, 2560, 1280} {
		res, got := run(chunks)
		if chunks == 1280 && !reflect.DeepEqual(got, want) {
			t.Fatal("a run on released storage differs from the same run on fresh storage")
		}
		res.Release()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release did not panic")
		}
	}()
	(*Result)(nil).Release()
	first.Release()
}
