// Package plannerbench holds the seeded problems and the replan rig shared
// by the repo-root testing.B benchmarks and the `opass bench planner`
// experiment (which replays them through testing.Benchmark to emit
// BENCH_planner.json).
package plannerbench

import (
	"opass/internal/core"
	"opass/internal/workload"
)

// Sizes are the benchmark scales: procs × (10 tasks per proc), from the
// paper's 64-node evaluation up to the §V-C2 scalability regime.
var Sizes = []int{64, 128, 256}

// TasksPerProc fixes the task density of every benchmark problem.
const TasksPerProc = 10

// BuildSingle constructs the seeded single-data problem at the given scale.
func BuildSingle(procs int) (*core.Problem, error) {
	rig, err := singleRig(procs)
	if err != nil {
		return nil, err
	}
	return rig.Prob, nil
}

// singleRig is BuildSingle with the file system the problem reads, for the
// replan rig, which mutates it.
func singleRig(procs int) (*workload.Rig, error) {
	return workload.SingleSpec{Nodes: procs, ChunksPerProc: TasksPerProc, Seed: 1}.Build()
}

// BuildMulti constructs the seeded 30/20/10 MB multi-data problem at the
// given scale.
func BuildMulti(procs int) (*core.Problem, error) {
	rig, err := workload.MultiSpec{Nodes: procs, TasksPerProc: TasksPerProc, Seed: 1}.Build()
	if err != nil {
		return nil, err
	}
	return rig.Prob, nil
}
