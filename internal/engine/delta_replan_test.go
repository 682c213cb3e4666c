package engine

import (
	"fmt"
	"slices"
	"testing"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
)

// backlog copies each process's not-yet-dispatched tasks out of src, in
// dispatch order.
func backlog(src *ListSource) [][]int {
	out := make([][]int, len(src.lists))
	for i, list := range src.lists {
		out[i] = slices.Clone(list[src.pos[i]:])
	}
	return out
}

// chunkEpochs snapshots the epoch of every chunk in fs.
func chunkEpochs(fs *dfs.FileSystem) []uint64 {
	out := make([]uint64, fs.NumChunks())
	for id := range out {
		out[id] = fs.ChunkEpoch(dfs.ChunkID(id))
	}
	return out
}

// affectedSet computes, independently of the replanner, which pending tasks
// the event at node could have moved: inputs whose epoch differs from the
// per-chunk snapshot, inputs with a replica on the node, or a queue on one
// of the node's processes.
func affectedSet(p *core.Problem, fs *dfs.FileSystem, pending [][]int, epochs []uint64, node int) map[int]bool {
	out := map[int]bool{}
	for proc, list := range pending {
		for _, id := range list {
			if p.ProcNode[proc] == node {
				out[id] = true
				continue
			}
			for _, in := range p.Tasks[id].Inputs {
				if fs.ChunkEpoch(in.Chunk) != epochs[in.Chunk] || p.HostedOn(in.Chunk, node) {
					out[id] = true
					break
				}
			}
		}
	}
	return out
}

// TestDeltaReplanSplicesOnlyAffectedTasks pins the surgical contract of
// ReplanBacklogDelta after a permanent crash: unaffected tasks keep their
// process and dispatch order, affected tasks are re-matched over the
// survivors, and together they still cover the backlog exactly once.
func TestDeltaReplanSplicesOnlyAffectedTasks(t *testing.T) {
	const (
		nodes  = 16
		chunks = 160
		seed   = 7
		victim = 3
	)
	r := buildRig(t, nodes, chunks, seed, dfs.RandomPlacement{})
	a := opassAssignment(t, r, seed)
	src := NewListSource(a.Lists)
	since, epochs := r.fs.Epoch(), chunkEpochs(r.fs)
	before := backlog(src)

	// The event: the victim's DataNode is lost for good and the namenode
	// drops its replicas (bumping the affected chunks' epochs).
	if _, _, err := r.fs.Crash(victim); err != nil {
		t.Fatal(err)
	}
	affected := affectedSet(r.prob, r.fs, before, epochs, victim)
	if len(affected) == 0 || len(affected) == chunks {
		t.Fatalf("fixture not discriminating: %d of %d tasks affected", len(affected), chunks)
	}

	finished := make([]bool, r.prob.NumProcs())
	weight := func(node int) float64 { return 1 }
	spliced, rematched, err := ReplanBacklogDelta(r.prob, r.fs, src, finished, weight, seed, victim, since)
	if err != nil {
		t.Fatal(err)
	}
	if !spliced {
		t.Fatal("delta replan spliced nothing")
	}
	if rematched != len(affected) {
		t.Fatalf("re-matched %d tasks, affected set has %d", rematched, len(affected))
	}

	after := backlog(src)
	seen := map[int]int{}
	for proc, list := range after {
		// Each process's kept prefix must be its old list minus the affected
		// tasks, in the old order.
		var keptWant []int
		for _, id := range before[proc] {
			if !affected[id] {
				keptWant = append(keptWant, id)
			}
		}
		for i, id := range keptWant {
			if i >= len(list) || list[i] != id {
				t.Fatalf("proc %d: kept backlog disturbed: got %v, want prefix %v", proc, list, keptWant)
			}
		}
		for _, id := range list[len(keptWant):] {
			if !affected[id] {
				t.Fatalf("proc %d: unaffected task %d was re-matched", proc, id)
			}
		}
		for _, id := range list {
			seen[id]++
		}
	}
	if len(seen) != chunks {
		t.Fatalf("backlog covers %d tasks after splice, want %d", len(seen), chunks)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d appears %d times after splice", id, n)
		}
	}
}

// TestDeltaReplanNoAffectedTasksIsANoOp: an event on a node that hosts no
// replicas of the backlog and runs no process leaves the source untouched.
func TestDeltaReplanNoAffectedTasksIsANoOp(t *testing.T) {
	r := buildRig(t, 8, 40, 3, dfs.RandomPlacement{})
	// Processes only on nodes 0..3, and node 7 is drained of every replica
	// before the epoch is taken: an event there can affect nothing.
	r.prob.ProcNode = []int{0, 1, 2, 3}
	const spare = 7
	for _, id := range r.fs.HostedBy(spare) {
		c := r.fs.Chunk(id)
		moved := false
		for _, n := range r.fs.LiveNodes() {
			if n != spare && !c.HostedOn(n) {
				if err := r.fs.MoveReplica(id, spare, n); err != nil {
					t.Fatal(err)
				}
				moved = true
				break
			}
		}
		if !moved {
			t.Fatalf("no destination free of chunk %d", id)
		}
	}
	a := opassAssignment(t, r, 3)
	src := NewListSource(a.Lists)
	before := backlog(src)
	spliced, rematched, err := ReplanBacklogDelta(r.prob, r.fs, src, make([]bool, 4), func(int) float64 { return 1 }, 3, spare, r.fs.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if spliced || rematched != 0 {
		t.Fatalf("no-op event spliced=%v rematched=%d", spliced, rematched)
	}
	after := backlog(src)
	for proc := range before {
		if len(before[proc]) != len(after[proc]) {
			t.Fatalf("proc %d backlog changed on a no-op event", proc)
		}
		for i := range before[proc] {
			if before[proc][i] != after[proc][i] {
				t.Fatalf("proc %d backlog changed on a no-op event", proc)
			}
		}
	}
}

// TestDeltaReplanEndToEnd: a full engine run under the default (delta)
// replanning completes every task, counts the re-matched tasks, and stays
// strictly surgical — while ReplanFull reproduces the old whole-backlog
// behavior with a zero delta counter.
func TestDeltaReplanEndToEnd(t *testing.T) {
	const (
		nodes  = 16
		chunks = 128
		seed   = 7
	)
	run := func(full bool) *Result {
		r := buildRig(t, nodes, chunks, seed, dfs.RandomPlacement{})
		a := opassAssignment(t, r, seed)
		opts := r.opts("opass")
		opts.Failures = []NodeFailure{{Node: 1, At: 1.0}}
		opts.Replan = true
		opts.ReplanFull = full
		opts.Repair = true
		opts.RepairDelay = 2.0
		opts.ReplanSeed = seed
		res, err := RunAssignment(opts, a)
		if err != nil {
			t.Fatal(err)
		}
		if res.TasksRun != chunks {
			t.Fatalf("tasks run = %d, want %d", res.TasksRun, chunks)
		}
		if res.Replans == 0 {
			t.Fatal("run never replanned")
		}
		return res
	}
	delta := run(false)
	full := run(true)
	if delta.DeltaReplannedTasks == 0 {
		t.Fatal("delta run re-matched no tasks")
	}
	if delta.DeltaReplannedTasks >= chunks {
		t.Fatalf("delta run re-matched %d tasks across replans, want fewer than the %d-task job", delta.DeltaReplannedTasks, chunks)
	}
	if full.DeltaReplannedTasks != 0 {
		t.Fatalf("full replan counted %d delta-replanned tasks, want 0", full.DeltaReplannedTasks)
	}
}

// crashReplan plans 160 tasks of the given input sizes over 16 nodes, one
// process each, with the Opass planner, starts one task per process, crashes
// node 2 and re-matches the whole backlog under weight. It returns the
// problem, its file system and the replanned source.
func crashReplan(t *testing.T, sizes []float64, weight func(node int) float64) (*core.Problem, *dfs.FileSystem, *ListSource) {
	t.Helper()
	const (
		nodes  = 16
		tasks  = 160
		seed   = 3
		victim = 2
	)
	topo := cluster.New(nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: seed, Placement: dfs.RandomPlacement{}})
	prob := &core.Problem{ProcNode: make([]int, nodes), FS: fs}
	for i := range prob.ProcNode {
		prob.ProcNode[i] = i
	}
	for i := 0; i < tasks; i++ {
		task := core.Task{ID: i}
		for _, size := range sizes {
			f, err := fs.CreateChunks(fmt.Sprintf("/task%d/%v", i, size), []float64{size})
			if err != nil {
				t.Fatal(err)
			}
			task.Inputs = append(task.Inputs, core.Input{Chunk: f.Chunks[0], SizeMB: size})
		}
		prob.Tasks = append(prob.Tasks, task)
	}
	planner, err := core.AssignerFor("opass", seed, prob.MultiInput())
	if err != nil {
		t.Fatal(err)
	}
	a, err := planner.Assign(prob)
	if err != nil {
		t.Fatal(err)
	}
	src := NewListSource(a.Lists)
	for proc := range a.Lists { // every process has started one task
		src.Next(proc)
	}
	since := fs.Epoch()
	if _, _, err := fs.Crash(victim); err != nil {
		t.Fatal(err)
	}
	spliced, _, err := ReplanBacklogDelta(prob, fs, src, make([]bool, nodes), weight, seed, -1, since)
	if err != nil {
		t.Fatal(err)
	}
	if !spliced {
		t.Fatal("the crash replanned nothing")
	}
	return prob, fs, src
}

// TestReplanMultiInputPlansAtLeastAlgorithm1: a multi-input backlog is
// re-matched after a DataNode crash by the exact multi-data planner, so the
// backlog the replan installs reads at least as much data locally as
// Algorithm 1 plans on the same sub-problem — on this fixture strictly
// more, which is what shows the replan is not running Algorithm 1.
func TestReplanMultiInputPlansAtLeastAlgorithm1(t *testing.T) {
	const seed = 3
	prob, fs, src := crashReplan(t, []float64{30, 20, 10}, func(int) float64 { return 1 })

	// A full re-match's sub-problem is every pending task, in ID order, over
	// every process.
	var ids []int
	var local float64
	for proc, list := range backlog(src) {
		for _, id := range list {
			ids = append(ids, id)
			local += prob.CoLocatedMB(proc, id)
		}
	}
	slices.Sort(ids)
	sub := &core.Problem{ProcNode: prob.ProcNode, FS: fs}
	for i, id := range ids {
		sub.Tasks = append(sub.Tasks, core.Task{ID: i, Inputs: prob.Tasks[id].Inputs})
	}
	alg1, err := core.MultiData{Seed: seed}.Assign(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !(local > alg1.PlannedLocalMB) {
		t.Fatalf("replanned backlog reads %v MB locally, Algorithm 1 plans %v MB on the same %d tasks", local, alg1.PlannedLocalMB, len(ids))
	}
}

// TestReplanMultiInputHonoursNodeWeights: a full replan after node 2 crashes,
// with node 2 weighted 0, leaves process 2 no backlog whether the tasks read
// one input or three — the weights are quota weights for both planners.
func TestReplanMultiInputHonoursNodeWeights(t *testing.T) {
	const victim = 2
	weight := func(node int) float64 {
		if node == victim {
			return 0
		}
		return 1
	}
	for _, sizes := range [][]float64{{64}, {30, 20, 10}} {
		_, _, src := crashReplan(t, sizes, weight)
		if n := len(backlog(src)[victim]); n != 0 {
			t.Errorf("inputs %v: process %d on the zero-weight node keeps %d re-matched tasks", sizes, victim, n)
		}
	}
}
