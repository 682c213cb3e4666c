package opass

// This file holds BenchmarkStudy — one sub-benchmark per study of the
// experiments catalogue, regenerating the study's data end-to-end each
// iteration — and microbenchmarks for the algorithmic building blocks: the
// max-flow solvers behind §IV-B, Algorithm 1, the dynamic scheduler, and the
// fluid simulator. Run everything with:
//
//	go test -bench=. -benchmem
//
// The studies run at paper scale (64-80 node clusters); the planner
// microbenchmarks sweep sizes up to 256 processes x 2560 tasks to exercise
// the §V-C2 scalability discussion.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"opass/internal/bipartite"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
	"opass/internal/experiments"
	"opass/internal/plannerbench"
	"opass/internal/simnet"
	"opass/internal/workload"
)

// BenchmarkStudy regenerates every study of the experiments catalogue end to
// end, one sub-benchmark per study (BenchmarkStudy/fig7c, ...). The seed is
// opass bench's default: the chaos study's strict replan-beats-failover
// gates do not hold on every seed.
func BenchmarkStudy(b *testing.B) {
	for _, st := range experiments.Catalog() {
		b.Run(st.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := st.Run(experiments.Config{Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// plannerProblem builds a single-data problem of the given scale for the
// planner microbenchmarks.
func plannerProblem(b *testing.B, nodes int) *core.Problem {
	b.Helper()
	rig, err := workload.SingleSpec{Nodes: nodes, ChunksPerProc: 10, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	return rig.Prob
}

// BenchmarkPlannerSingleDataEK measures the §IV-B flow planner with
// Edmonds-Karp across problem sizes (§V-C2 scalability).
func BenchmarkPlannerSingleDataEK(b *testing.B) {
	for _, nodes := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("procs=%d", nodes), func(b *testing.B) {
			p := plannerProblem(b, nodes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (core.SingleData{Algorithm: bipartite.EdmondsKarp}).Assign(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannerSingleDataDinic is the max-flow algorithm ablation.
func BenchmarkPlannerSingleDataDinic(b *testing.B) {
	for _, nodes := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("procs=%d", nodes), func(b *testing.B) {
			p := plannerProblem(b, nodes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (core.SingleData{Algorithm: bipartite.Dinic}).Assign(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannerSingleDataMatcher measures the default solver, the phased
// matcher.
func BenchmarkPlannerSingleDataMatcher(b *testing.B) {
	for _, nodes := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("procs=%d", nodes), func(b *testing.B) {
			p := plannerProblem(b, nodes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (core.SingleData{Algorithm: bipartite.Kuhn}).Assign(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannerSingleDataTailChunk measures the default single-data
// planner where every 10th chunk is a file's tail: unequal sizes, so it runs
// one Dinic max flow instead of the matcher. Edmonds-Karp, the paper's
// solver, runs beside it at the sizes where one plan takes under a second.
func BenchmarkPlannerSingleDataTailChunk(b *testing.B) {
	for _, c := range []struct {
		name  string
		algo  bipartite.Algorithm
		procs []int
	}{
		{"default", bipartite.Kuhn, []int{64, 256, 1024}},
		{"edmonds-karp", bipartite.EdmondsKarp, []int{64, 256}},
	} {
		for _, procs := range c.procs {
			b.Run(fmt.Sprintf("%s/procs=%d", c.name, procs), func(b *testing.B) {
				p := tailChunkProblem(procs, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := (core.SingleData{Algorithm: c.algo}).Assign(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// tailChunkProblem is procs processes, one per node, and 10 tasks each of
// one 64 MB chunk, every 10th cut to a 1–63 MB tail, with three distinct
// random replicas per chunk.
func tailChunkProblem(procs int, seed int64) *core.Problem {
	rng := rand.New(rand.NewSource(seed))
	layout := &core.Layout{RepOff: []int{0}}
	p := &core.Problem{ProcNode: make([]int, procs), FS: layout}
	for i := range p.ProcNode {
		p.ProcNode[i] = i
	}
	row := make([]int, 0, 3)
	for t := 0; t < 10*procs; t++ {
		size := 64.0
		if t%10 == 9 {
			size = float64(1 + rng.Intn(63))
		}
		p.Tasks = append(p.Tasks, core.Task{ID: t, Inputs: []core.Input{{Chunk: dfs.ChunkID(t), SizeMB: size}}})
		for row = row[:0]; len(row) < 3; {
			if node := rng.Intn(procs); !slices.Contains(row, node) {
				row = append(row, node)
			}
		}
		slices.Sort(row)
		layout.Reps = append(layout.Reps, row...)
		layout.RepOff = append(layout.RepOff, len(layout.Reps))
	}
	return p
}

// BenchmarkPlannerMultiData measures Algorithm 1 across problem sizes.
func BenchmarkPlannerMultiData(b *testing.B) {
	for _, nodes := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("procs=%d", nodes), func(b *testing.B) {
			rig, err := workload.MultiSpec{Nodes: nodes, TasksPerProc: 10, Seed: 1}.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (core.MultiData{}).Assign(rig.Prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannerMultiExact measures the exact multi-data planner on
// BenchmarkPlannerMultiData's problems, plus a skewed one where three of 256
// nodes hold every replica: the tight matching places almost nothing there,
// so nearly every task goes through the min-cost repair.
func BenchmarkPlannerMultiExact(b *testing.B) {
	plan := func(b *testing.B, p *core.Problem) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := (core.MultiExact{}).Assign(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, nodes := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("procs=%d", nodes), func(b *testing.B) {
			rig, err := workload.MultiSpec{Nodes: nodes, TasksPerProc: 10, Seed: 1}.Build()
			if err != nil {
				b.Fatal(err)
			}
			plan(b, rig.Prob)
		})
	}
	b.Run("procs=256/skewed-3-holders", func(b *testing.B) {
		plan(b, skewedMultiProblem(256, 3, 2560))
	})
}

// skewedMultiProblem is procs processes, one per node, and tasks tasks of
// 30/20/10 MB inputs whose three replicas all sit on the first hot nodes.
func skewedMultiProblem(procs, hot, tasks int) *core.Problem {
	rng := rand.New(rand.NewSource(1))
	layout := &core.Layout{RepOff: []int{0}}
	p := &core.Problem{ProcNode: make([]int, procs), FS: layout}
	for i := range p.ProcNode {
		p.ProcNode[i] = i
	}
	for t := 0; t < tasks; t++ {
		task := core.Task{ID: t}
		for _, size := range []float64{30, 20, 10} {
			task.Inputs = append(task.Inputs, core.Input{Chunk: dfs.ChunkID(len(layout.RepOff) - 1), SizeMB: size})
			row := rng.Perm(hot)
			slices.Sort(row)
			layout.Reps = append(layout.Reps, row...)
			layout.RepOff = append(layout.RepOff, len(layout.Reps))
		}
		p.Tasks = append(p.Tasks, task)
	}
	return p
}

// BenchmarkLocalityIndexBuild isolates the index inversion itself, released
// after each build as every planner does: without the Release each build
// allocates cold, and at -cpu 2 the figure is mostly the concurrent
// collector chasing that garbage, not the build.
func BenchmarkLocalityIndexBuild(b *testing.B) {
	for _, procs := range plannerbench.Sizes {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			p, err := plannerbench.BuildSingle(procs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.NewLocalityIndex(p).Release()
			}
		})
	}
}

// BenchmarkDynamicSchedulerDrain measures the §IV-D master serving a full
// job's worth of Next calls, including the stealing path.
func BenchmarkDynamicSchedulerDrain(b *testing.B) {
	p := plannerProblem(b, 64)
	a, err := (core.SingleData{}).Assign(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.NewDynamicScheduler(p, a)
		if err != nil {
			b.Fatal(err)
		}
		proc := 0
		for {
			if _, ok := s.Next(proc); !ok {
				break
			}
			proc = (proc + 7) % 64 // arbitrary idle pattern
		}
	}
}

// BenchmarkReplanAfterCrashCold and BenchmarkReplanAfterCrashDelta contrast
// the engine's two answers to a single DataNode loss mid-run: a
// whole-backlog re-match versus the O(delta) replan that re-matches only
// the tasks the crash could have moved (epoch-dirty inputs, replicas on
// the dead node, or queued on its process).
func BenchmarkReplanAfterCrashCold(b *testing.B) {
	for _, procs := range plannerbench.Sizes {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			r, err := plannerbench.BuildReplanRig(procs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.ReplanCold(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReplanAfterCrashDelta(b *testing.B) {
	for _, procs := range plannerbench.Sizes {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			r, err := plannerbench.BuildReplanRig(procs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.ReplanDelta(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxFlowEK and BenchmarkMaxFlowDinic isolate the flow solvers on
// the raw locality network (64 procs x 640 files x 3 replicas). A solve
// consumes its network, so each iteration builds a fresh one off the clock.
func maxflowNetwork(b *testing.B) (build func() *bipartite.FlowNetwork, s, t int) {
	b.Helper()
	rig, err := workload.SingleSpec{Nodes: 64, ChunksPerProc: 10, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	files := len(rig.Prob.Tasks)
	var local [][2]int // (proc, file), process-major and file-ascending
	for p := 0; p < 64; p++ {
		for f := 0; f < files; f++ {
			if rig.Prob.CoLocatedMB(p, f) > 0 {
				local = append(local, [2]int{p, f})
			}
		}
	}
	n := 64 + files + 2
	s, t = 0, n-1
	return func() *bipartite.FlowNetwork {
		fn := bipartite.NewFlowNetwork(n)
		for p := 0; p < 64; p++ {
			fn.AddArc(s, 1+p, 640)
		}
		for _, e := range local {
			fn.AddArc(1+e[0], 1+64+e[1], 64)
		}
		for f := 0; f < files; f++ {
			fn.AddArc(1+64+f, t, 64)
		}
		return fn
	}, s, t
}

// BenchmarkMaxFlowEK measures Edmonds-Karp on the 64x640 locality network.
func BenchmarkMaxFlowEK(b *testing.B) {
	build, s, t := maxflowNetwork(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fn := build()
		b.StartTimer()
		fn.MaxFlowEK(s, t)
	}
}

// BenchmarkMaxFlowDinic measures Dinic on the same network.
func BenchmarkMaxFlowDinic(b *testing.B) {
	build, s, t := maxflowNetwork(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fn := build()
		b.StartTimer()
		fn.MaxFlowDinic(s, t)
	}
}

// BenchmarkSimnetContendedDisk measures the fluid simulator on the paper's
// worst case: many concurrent streams on one disk.
func BenchmarkSimnetContendedDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := simnet.New()
		disk := n.AddResource("disk", 75, 0.3)
		for f := 0; f < 64; f++ {
			n.Start([]simnet.ResourceID{disk}, 64, 0.015, 0)
		}
		n.Run()
	}
}

// BenchmarkDFSCreate measures metadata-path throughput: creating a 640-chunk
// dataset with random 3-way placement.
func BenchmarkDFSCreate(b *testing.B) {
	topoView := fixedView{nodes: 64}
	for i := 0; i < b.N; i++ {
		fs := dfs.New(topoView, dfs.Config{Seed: int64(i)})
		if _, err := fs.Create("/data", 640*64); err != nil {
			b.Fatal(err)
		}
	}
}

type fixedView struct{ nodes int }

func (v fixedView) NumNodes() int    { return v.nodes }
func (v fixedView) RackOf(n int) int { return 0 }

// BenchmarkEngineStaticRun measures a full 64-node static execution
// (plan + simulate 640 reads) — the engine's end-to-end cost.
func BenchmarkEngineStaticRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rig, err := workload.SingleSpec{Nodes: 64, ChunksPerProc: 10, Seed: int64(i)}.Build()
		if err != nil {
			b.Fatal(err)
		}
		a, err := (core.SingleData{}).Assign(rig.Prob)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engineRun(rig, a); err != nil {
			b.Fatal(err)
		}
	}
}

func engineRun(rig *workload.Rig, a *core.Assignment) (*engine.Result, error) {
	return engine.RunAssignment(engine.Options{
		Topo: rig.Topo, FS: rig.FS, Problem: rig.Prob, Strategy: "bench",
	}, a)
}
