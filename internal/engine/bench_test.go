package engine

import (
	"testing"

	"opass/internal/core"
	"opass/internal/dfs"
)

// BenchmarkSimulateFaults times the engine stage of the benchmark's
// simulate-faults workload: 128 processes x 1,280 single-chunk tasks under an
// Opass plan, one permanent crash at t=3 s, one half-speed node from t=1 s,
// replan and repair on (repair 2 s after the crash). Planning and fixture
// construction are outside the timer; us/read is what bench/ reports as
// engine.us_per_read.
func BenchmarkSimulateFaults(b *testing.B) {
	const (
		nodes  = 128
		chunks = 1280
		seed   = 1
	)
	var reads, events int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A crash rewrites placement, so every iteration needs its own world.
		r := buildRig(b, nodes, chunks, seed, dfs.RandomPlacement{})
		a, err := core.SingleData{Seed: seed}.Assign(r.prob)
		if err != nil {
			b.Fatal(err)
		}
		opts := r.opts("opass")
		opts.Failures = []NodeFailure{{Node: 17, At: 3}}
		opts.Degradations = []NodeDegradation{{Node: 90, At: 1, DiskFactor: 0.5, NICFactor: 0.5}}
		opts.Replan, opts.Repair, opts.RepairDelay, opts.ReplanSeed = true, true, 2, seed
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
