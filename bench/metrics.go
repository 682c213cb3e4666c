package main

import (
	"math"
	"slices"
)

// metricDef names one reported metric. Exact marks a value that is a function
// of the seed alone: two runs of the same seed must report it identically,
// and a speed-only change that moves it has changed behaviour.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Exact  bool
}

// endToEnd lists what a user of the service pays for. BENCHMARK.json carries
// the bound of each; failed_frac has no relative bound there (it is 0 on a
// healthy run) and is reported through the result line's failed/attempted,
// and -compare requires it not to grow at all.
var endToEnd = []metricDef{
	{"req_p50_ms", "ms", "lower", false},
	{"req_p90_ms", "ms", "lower", false},
	{"tasks_per_s", "tasks/s", "higher", false},
	{"cpu_ms_per_req", "ms", "lower", false},
	{"alloc_mb_per_req", "MB", "lower", false},
	{"heap_live_mb", "MB", "lower", false},
	{"locality_frac", "fraction", "higher", false},
	{"failed_frac", "fraction", "lower", false},
	{"setup_s", "s", "lower", false},
}

// perLayer lists the traced-pass metrics, grouped by the package they measure.
// README.md records which end-to-end metric each should move, on which
// workload.
var perLayer = []metricDef{
	{"httpapi.serve_ms", "ms", "lower", false},
	{"httpapi.nonplanner_ms", "ms", "lower", false},
	{"httpapi.transport_ms", "ms", "lower", false},
	{"httpapi.encode_ms", "ms", "lower", false},
	{"httpapi.body_kb", "kB", "lower", true},
	{"httpapi.resp_kb", "kB", "lower", false},
	{"httpapi.non200", "count", "lower", true},

	{"dfs.mirror_build_ms", "ms", "lower", false},
	{"dfs.chunks", "count", "lower", true},
	{"dfs.repaired_chunks", "count", "higher", true},

	{"core.planner_ms", "ms", "lower", false},
	{"core.assign_ms", "ms", "lower", false},
	{"core.index_build_ms", "ms", "lower", false},
	{"core.index_edges", "count", "lower", true},
	{"core.assign_self_ms", "ms", "lower", false},
	{"core.canonical_ms", "ms", "lower", false},
	{"core.canonical_kb", "kB", "lower", true},
	{"core.matched_frac", "fraction", "higher", true},

	{"bipartite.graph_build_ms", "ms", "lower", false},
	{"bipartite.match_ms", "ms", "lower", false},
	{"bipartite.edges", "count", "lower", true},
	{"bipartite.matched_tasks", "count", "higher", true},

	{"plancache.hit_frac", "fraction", "higher", true},
	{"plancache.entries", "count", "lower", true},
	{"plancache.evictions", "count", "lower", true},
	{"plancache.key_ms", "ms", "lower", false},

	{"engine.run_ms", "ms", "lower", false},
	{"engine.us_per_read", "us", "lower", false},
	{"engine.reads", "count", "lower", true},
	{"engine.makespan_s", "s", "lower", true},
	{"engine.local_frac", "fraction", "higher", true},
	{"engine.served_maxmin", "ratio", "lower", true},
	{"engine.retries", "count", "lower", true},
	{"engine.replans", "count", "lower", true},
	{"engine.delta_replanned_tasks", "count", "lower", true},

	{"simnet.flows_started", "count", "lower", true},
	{"simnet.flows_completed", "count", "higher", true},

	{"process.gc_cycles", "count", "lower", false},
	{"process.gc_pause_ms", "ms", "lower", false},
	{"process.go_max_procs", "count", "higher", false},
	{"host.spin_ms", "ms", "lower", false},
	{"host.spin_drift_frac", "fraction", "lower", false},
	{"trace.attributed_frac", "fraction", "higher", false},
}

// median returns the middle value (mean of the two middle ones for an even
// count), 0 for no values. It and percentile are the benchmark's own rather
// than internal/metrics': the instrument should not move when the program
// under test is refactored.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile, so a failed request's +Inf
// latency surfaces once failures reach 1-q of the samples.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// finite maps +Inf (a percentile made of failed requests) to the largest
// float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
