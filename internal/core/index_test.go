package core

import (
	"bytes"
	"runtime"
	"slices"
	"sort"
	"testing"

	"opass/internal/dfs"
)

// indexOracleProblems are the shapes the index tests sweep: single- and
// multi-input tasks, a task count past the old worker-pool threshold, two
// process ranks per node (interleaved, so a node's ranks are not adjacent),
// and rack-tiered layouts with one and with three replicas per chunk.
func indexOracleProblems(t *testing.T) map[string]*Problem {
	single, _ := buildSingle(t, 16, 160, 9, dfs.RandomPlacement{})
	large, _ := buildSingle(t, 24, 512, 10, dfs.RandomPlacement{})
	shared := multiProblem(t, 8, 40, 14)
	shared.ProcNode = append(shared.ProcNode, shared.ProcNode...)
	racked, v := buildRacked(t, 16, 4, 160, 3, 15)
	racked.SetNodeRacksFromView(v)
	return map[string]*Problem{
		"single": single, "large": large, "multi": goldenMultiProblem(t),
		"multi-proc-per-node": shared, "racked": racked, "racked-multi": goldenRackedMultiProblem(t),
	}
}

// rackProbeMB is the brute-force rack tier: the bytes of task's inputs with
// a replica in proc's rack but none on proc's own node.
func rackProbeMB(p *Problem, proc, task int) float64 {
	node := p.ProcNode[proc]
	var s float64
	for _, in := range p.Tasks[task].Inputs {
		if p.HostedOn(in.Chunk, node) {
			continue
		}
		for _, r := range p.FS.Replicas(in.Chunk) {
			if p.NodeRack[r] == p.NodeRack[node] {
				s += in.SizeMB
				break
			}
		}
	}
	return s
}

// procOrder returns a Proc-ascending copy of an edge row, for comparing rows
// that promise no order as sets.
func procOrder(row []LocalityEdge) []LocalityEdge {
	out := slices.Clone(row)
	slices.SortFunc(out, func(a, b LocalityEdge) int { return a.Proc - b.Proc })
	return out
}

// TestLocalityIndexMatchesProbes asserts every view of the index reproduces
// a brute-force probe sweep bit-for-bit over every (proc, task) pair — the
// invariant the golden-plan equivalence rests on — whatever the storage
// layout behind the views.
func TestLocalityIndexMatchesProbes(t *testing.T) {
	for name, p := range indexOracleProblems(t) {
		t.Run(name, func(t *testing.T) {
			ix := NewLocalityIndex(p)
			defer ix.Release()
			if ix.RackTiered() != p.RackTiered() {
				t.Fatalf("index RackTiered = %v, problem says %v", ix.RackTiered(), p.RackTiered())
			}
			byProc := make([][]LocalityEdge, p.NumProcs())
			edges := 0
			for task := range p.Tasks {
				var want, wantRack []LocalityEdge
				for proc := 0; proc < p.NumProcs(); proc++ {
					mb := p.CoLocatedMB(proc, task)
					if got := ix.CoLocatedMB(proc, task); got != mb {
						t.Fatalf("index MB(proc=%d, task=%d) = %v, probe says %v", proc, task, got, mb)
					}
					if mb > 0 {
						e := LocalityEdge{Proc: proc, Task: task, MB: mb}
						want = append(want, e)
						byProc[proc] = append(byProc[proc], e)
					}
					if !p.RackTiered() {
						continue
					}
					rmb := rackProbeMB(p, proc, task)
					if got := ix.RackCoLocatedMB(proc, task); got != rmb {
						t.Fatalf("index rack MB(proc=%d, task=%d) = %v, probe says %v", proc, task, got, rmb)
					}
					if rmb > 0 {
						wantRack = append(wantRack, LocalityEdge{Proc: proc, Task: task, MB: rmb})
					}
				}
				edges += len(want)
				if got := ix.taskEdges(task); !slices.Equal(got, want) {
					t.Fatalf("taskEdges(%d) = %v, probes say %v", task, got, want)
				}
				// Rack rows promise no order: compared as sets.
				if got := procOrder(ix.TaskRackEdges(task)); !slices.Equal(got, wantRack) {
					t.Fatalf("TaskRackEdges(%d) = %v as a set, probes say %v", task, got, wantRack)
				}
			}
			for proc, want := range byProc {
				if got := ix.ProcEdges(proc); !slices.Equal(got, want) {
					t.Fatalf("ProcEdges(%d) = %v, probes say %v", proc, got, want)
				}
			}
			if ix.NumEdges() != edges {
				t.Fatalf("index has %d edges, probes found %d", ix.NumEdges(), edges)
			}
		})
	}
}

// TestLocalityIndexViewsSorted asserts the ordering contracts taskEdges and
// ProcEdges document, that TaskRackEdges (which promises no order) holds
// each process at most once, and that the two node-tier views hold NumEdges
// edges each.
func TestLocalityIndexViewsSorted(t *testing.T) {
	for name, p := range indexOracleProblems(t) {
		ix := NewLocalityIndex(p)
		byTask, byProc := 0, 0
		for task := range p.Tasks {
			// A sorted copy of a rack row is strictly ascending only if each
			// process appears once.
			for tier, es := range [][]LocalityEdge{ix.taskEdges(task), procOrder(ix.TaskRackEdges(task))} {
				for k := 1; k < len(es); k++ {
					if es[k-1].Proc >= es[k].Proc {
						t.Fatalf("%s: tier %d edges of task %d not strictly process-ascending: %v", name, tier, task, es)
					}
				}
				for _, e := range es {
					if e.Task != task || e.MB <= 0 {
						t.Fatalf("%s: tier %d edges of task %d contain foreign or empty edge %+v", name, tier, task, e)
					}
				}
			}
			byTask += len(ix.taskEdges(task))
		}
		for proc := 0; proc < p.NumProcs(); proc++ {
			es := ix.ProcEdges(proc)
			if !sort.SliceIsSorted(es, func(a, b int) bool { return es[a].Task < es[b].Task }) {
				t.Fatalf("%s: ProcEdges(%d) not task-ascending: %v", name, proc, es)
			}
			for _, e := range es {
				if e.Proc != proc || e.MB <= 0 {
					t.Fatalf("%s: ProcEdges(%d) contains foreign or empty edge %+v", name, proc, e)
				}
			}
			byProc += len(es)
		}
		if byTask != ix.NumEdges() || byProc != ix.NumEdges() {
			t.Fatalf("%s: views enumerate %d / %d edges, index reports %d", name, byTask, byProc, ix.NumEdges())
		}
		ix.Release()
	}
}

// TestPlansIdenticalAcrossGOMAXPROCS plans every index-backed planner at
// GOMAXPROCS 1, 2 and 8 and asserts byte-identical Owner and Lists. Every
// stage — the index, the graph build, the solvers and the size sums — is
// serial, so worker count has no way into a plan; the test keeps it so if a
// stage is ever parallelised.
func TestPlansIdenticalAcrossGOMAXPROCS(t *testing.T) {
	single, _ := buildSingle(t, 24, 512, 12, dfs.RandomPlacement{})
	cases := []struct {
		name string
		a    Assigner
		p    *Problem
	}{
		{"single", SingleData{Seed: 1}, single},
		{"multi", MultiData{Seed: 3}, goldenMultiProblem(t)},
		{"racked-single", SingleData{Seed: 4}, goldenRackedProblem(t, func(int) float64 { return 64 })},
		{"racked-multi", MultiData{Seed: 5}, goldenRackedMultiProblem(t)},
		{"multi-exact", MultiExact{Seed: 3}, goldenMultiProblem(t)},
		{"racked-multi-exact", MultiExact{Seed: 5}, goldenRackedMultiProblem(t)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		var base []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := planBytes(t, c.a, c.p)
			if base == nil {
				base = got
			} else if !bytes.Equal(got, base) {
				t.Errorf("%s: plan at GOMAXPROCS=%d differs from the one at 1", c.name, procs)
			}
		}
	}
}

// TestSingleDataSubMBTasks pins the capacity-unit fix: sub-MB tasks used to
// be clamped to 1 MB each in the flow encoding (a 0.4 MB task inflated
// 2.5x), which skewed the per-process quotas whenever task sizes were
// mixed. With scaled units the planner balances the actual megabytes.
func TestSingleDataSubMBTasks(t *testing.T) {
	// 2 processes; 10 tasks of 0.4 MB and 4 of 2.0 MB, every chunk
	// replicated on both nodes so locality never constrains the split. The
	// ideal share is 6.0 MB per process.
	const nodes = 2
	fs := dfs.New(view{nodes}, dfs.Config{Replication: 2, Seed: 1})
	sizes := make([]float64, 0, 14)
	for i := 0; i < 10; i++ {
		sizes = append(sizes, 0.4)
	}
	for i := 0; i < 4; i++ {
		sizes = append(sizes, 2.0)
	}
	f, err := fs.CreateChunks("/mixed", sizes)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{ProcNode: []int{0, 1}, FS: fs}
	for i, id := range f.Chunks {
		p.Tasks = append(p.Tasks, Task{ID: i, Inputs: []Input{{Chunk: id, SizeMB: sizes[i]}}})
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if scale := capacityScale(p); scale < 32 {
		t.Fatalf("capacityScale = %d, want a sub-MB unit (>= 32 units/MB)", scale)
	}
	a, err := (SingleData{Seed: 3}).Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.LocalityFraction() != 1.0 {
		t.Fatalf("locality = %v, want 1.0 with full replication", a.LocalityFraction())
	}
	load := make([]float64, nodes)
	for task, proc := range a.Owner {
		load[proc] += p.Tasks[task].SizeMB()
	}
	ideal := p.TotalMB() / nodes
	for proc, mb := range load {
		if diff := mb - ideal; diff > 2.0 || diff < -2.0 {
			t.Fatalf("proc %d carries %.1f MB, ideal %.1f (quotas distorted by per-task MB rounding; loads %v)", proc, mb, ideal, load)
		}
	}
}

// TestCapUnitsWholeMBCompat asserts the scale-1 path is the paper's
// original encoding (round to nearest MB, floor 1), keeping whole-MB
// workloads byte-compatible with the pre-scaling planner.
func TestCapUnitsWholeMBCompat(t *testing.T) {
	for _, c := range []struct {
		size float64
		want int64
	}{{0.2, 1}, {0.6, 1}, {1.0, 1}, {1.4, 1}, {1.5, 2}, {64, 64}} {
		if got := capUnits(c.size, 1); got != c.want {
			t.Errorf("capUnits(%v, 1) = %d, want %d", c.size, got, c.want)
		}
	}
	whole, _ := buildSingle(t, 4, 16, 2, dfs.RandomPlacement{})
	if scale := capacityScale(whole); scale != 1 {
		t.Errorf("capacityScale on 64 MB chunks = %d, want 1", scale)
	}
}
