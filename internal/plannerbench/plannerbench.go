// Package plannerbench holds the planner hot-path benchmark bodies shared
// by the repo-root testing.B benchmarks and the `opass bench planner` experiment (which
// replays them through testing.Benchmark to emit BENCH_planner.json). Each
// pair of functions contrasts the pre-index implementation — O(procs ×
// tasks × inputs × replicas) CoLocatedMB probe sweeps — with the shared
// locality-index path that replaced it, so the perf trajectory records the
// speedup rather than a single opaque number.
package plannerbench

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"opass/internal/bipartite"
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
	rig, err := workload.SingleSpec{Nodes: procs, ChunksPerProc: TasksPerProc, Seed: 1}.Build()
	if err != nil {
		return nil, err
	}
	return rig.Prob, nil
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

// LocalityGraphProbe is the pre-index §IV-A graph build: probe every
// (process, task) pair with CoLocatedMB, each probe scanning the task's
// inputs times their replica lists.
func LocalityGraphProbe(p *core.Problem) *bipartite.Graph {
	g := bipartite.NewGraph(p.NumProcs(), len(p.Tasks))
	for t := range p.Tasks {
		for proc := 0; proc < p.NumProcs(); proc++ {
			if w := p.CoLocatedMB(proc, t); w > 0 {
				g.AddEdge(proc, t, mbRound(w))
			}
		}
	}
	return g
}

// LocalityGraphIndexed builds the same graph off the shared locality
// index, walking only the sparse edges.
func LocalityGraphIndexed(p *core.Problem) *bipartite.Graph {
	ix := core.NewLocalityIndex(p)
	g := bipartite.NewGraph(p.NumProcs(), len(p.Tasks))
	g.Reserve(ix.Degrees())
	for proc := 0; proc < p.NumProcs(); proc++ {
		for _, e := range ix.ProcEdges(proc) {
			g.AddEdge(proc, e.Task, mbRound(e.MB))
		}
	}
	return g
}

// MultiPrefsProbe is the pre-index Algorithm 1 preference-list build: an
// O(m·n) probe sweep into per-process maps, then a comparison sort against
// the map.
func MultiPrefsProbe(p *core.Problem) [][]int {
	n, m := len(p.Tasks), p.NumProcs()
	match := make([]map[int]float64, m)
	prefs := make([][]int, m)
	for proc := 0; proc < m; proc++ {
		match[proc] = make(map[int]float64)
		for t := 0; t < n; t++ {
			if w := p.CoLocatedMB(proc, t); w > 0 {
				match[proc][t] = w
				prefs[proc] = append(prefs[proc], t)
			}
		}
		mp := match[proc]
		sort.Slice(prefs[proc], func(a, b int) bool {
			ta, tb := prefs[proc][a], prefs[proc][b]
			if mp[ta] != mp[tb] {
				return mp[ta] > mp[tb]
			}
			return ta < tb
		})
	}
	return prefs
}

// MultiPrefsIndexed is the replacement: one O(edges) index inversion, then
// an independent stable sort per process (MultiData.Assign additionally
// fans these sorts out over a GOMAXPROCS pool; they run serially here so
// the measurement isolates the algorithmic win from the parallel one). The
// index build is included — it is the cost the probe sweep paid implicitly.
func MultiPrefsIndexed(p *core.Problem) [][]core.LocalityEdge {
	ix := core.NewLocalityIndex(p)
	prefs := make([][]core.LocalityEdge, p.NumProcs())
	for proc := 0; proc < p.NumProcs(); proc++ {
		es := ix.ProcEdges(proc)
		if len(es) == 0 {
			continue
		}
		own := append([]core.LocalityEdge(nil), es...)
		slices.SortStableFunc(own, func(a, b core.LocalityEdge) int { return cmp.Compare(b.MB, a.MB) })
		prefs[proc] = own
	}
	return prefs
}

// mbRound mirrors the planner's whole-MB capacity rounding.
func mbRound(w float64) int64 {
	v := int64(math.Round(w))
	if v < 1 {
		v = 1
	}
	return v
}
