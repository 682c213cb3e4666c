package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"opass/internal/bipartite"
	"opass/internal/core"
	"opass/internal/plannerbench"
)

// This file implements the "planner" experiment: the planner hot-path
// microbenchmarks replayed through testing.Benchmark, printed as a table
// and optionally serialized to BENCH_planner.json (-benchjson), the repo's
// per-stage perf trajectory at each problem size.

// benchResult is one serialized benchmark row.
type benchResult struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Tasks       int     `json:"tasks"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchSpeedup contrasts a slow/fast pair.
type benchSpeedup struct {
	Name    string  `json:"name"`
	Procs   int     `json:"procs"`
	Tasks   int     `json:"tasks"`
	Speedup float64 `json:"speedup"`
}

// benchReport is one GOMAXPROCS value's entry (see perProcsKey) of the
// BENCH_planner.json document.
type benchReport struct {
	GeneratedBy string         `json:"generated_by"`
	GoMaxProcs  int            `json:"go_max_procs"`
	Results     []benchResult  `json:"results"`
	Speedups    []benchSpeedup `json:"speedups"`
}

// runPlannerBench executes every planner microbenchmark and returns the
// report. Problems are built once per size outside the timed sections.
func runPlannerBench(w io.Writer) (*benchReport, error) {
	rep := &benchReport{
		GeneratedBy: "opass bench planner",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	// record times fn in a testing.B loop; an error from fn fails the
	// benchmark.
	record := func(name string, procs, tasks int, fn func() error) benchResult {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
		row := benchResult{
			Name:        name,
			Procs:       procs,
			Tasks:       tasks,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Results = append(rep.Results, row)
		fmt.Fprintf(w, "  %-28s procs=%-4d tasks=%-5d %14.0f ns/op %10d allocs/op\n",
			row.Name, row.Procs, row.Tasks, row.NsPerOp, row.AllocsPerOp)
		return row
	}
	// pair benchmarks a slow/fast contrast (baseSuffix vs fastSuffix) and
	// records the speedup of the second over the first.
	pair := func(name, baseSuffix, fastSuffix string, procs, tasks int, base, fast func() error) {
		p := record(name+"/"+baseSuffix, procs, tasks, base)
		ix := record(name+"/"+fastSuffix, procs, tasks, fast)
		if ix.NsPerOp > 0 {
			rep.Speedups = append(rep.Speedups, benchSpeedup{
				Name: name, Procs: procs, Tasks: tasks, Speedup: p.NsPerOp / ix.NsPerOp,
			})
		}
	}
	plan := func(as core.Assigner, p *core.Problem) func() error {
		return func() error { _, err := as.Assign(p); return err }
	}

	for _, procs := range plannerbench.Sizes {
		tasks := procs * plannerbench.TasksPerProc
		sp, err := plannerbench.BuildSingle(procs)
		if err != nil {
			return nil, err
		}
		mp, err := plannerbench.BuildMulti(procs)
		if err != nil {
			return nil, err
		}

		record("planner/index-build", procs, tasks, func() error {
			core.NewLocalityIndex(sp).Release()
			return nil
		})
		record("planner/single-ek", procs, tasks, plan(core.SingleData{Algorithm: bipartite.EdmondsKarp}, sp))
		record("planner/single-dinic", procs, tasks, plan(core.SingleData{Algorithm: bipartite.Dinic}, sp))
		record("planner/single-matcher", procs, tasks, plan(core.SingleData{Algorithm: bipartite.Kuhn}, sp))
		record("planner/multidata", procs, tasks, plan(core.MultiData{}, mp))
		record("planner/multidata-exact", procs, tasks, plan(core.MultiExact{}, mp))

		// Incremental series: one DataNode loss answered by a full backlog
		// re-match versus the O(delta) replan. The speedup row is the
		// epoch machinery's payoff; the acceptance bar is delta < 10% of
		// cold at the largest size.
		rig, err := plannerbench.BuildReplanRig(procs)
		if err != nil {
			return nil, err
		}
		pair("replan-after-crash", "cold", "delta", procs, tasks,
			rig.ReplanCold,
			func() error { _, err := rig.ReplanDelta(); return err })

		a, err := (core.SingleData{}).Assign(sp)
		if err != nil {
			return nil, err
		}
		record("planner/dynamic-drain", procs, tasks, func() error {
			s, err := core.NewDynamicScheduler(sp, a)
			if err != nil {
				return err
			}
			// Only a quarter of the processes ask for work so the tail
			// of the drain exercises the steal scan.
			askers := procs / 4
			proc := 0
			for {
				if _, ok := s.Next(proc); !ok {
					return nil
				}
				proc = (proc + 7) % askers
			}
		})
	}
	return rep, nil
}

// plannerExperiment runs the benchmarks, prints the speedup summary, and
// writes the JSON document when path is non-empty.
func plannerExperiment(w io.Writer, path string) error {
	fmt.Fprintln(w, "planner hot-path microbenchmarks (testing.Benchmark):")
	rep, err := runPlannerBench(w)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nspeedups (baseline -> optimized):")
	for _, s := range rep.Speedups {
		fmt.Fprintf(w, "  %-18s procs=%-4d tasks=%-5d %6.1fx\n", s.Name, s.Procs, s.Tasks, s.Speedup)
	}
	if path == "" {
		return nil
	}
	if err := mergeBenchJSON(path, map[string]any{perProcsKey(rep.GoMaxProcs): rep}); err != nil {
		return err
	}
	fmt.Fprintf(w, "(wrote %s)\n", path)
	return nil
}

// perProcsKey is the top-level BENCH key of a timing report. There is one
// per GOMAXPROCS value, so a run at NumCPU lands beside the GOMAXPROCS=1 run
// in the same document instead of replacing it.
func perProcsKey(procs int) string { return fmt.Sprintf("gomaxprocs_%d", procs) }

// mergeBenchJSON updates the BENCH json document in place: v's top-level
// fields replace the matching keys of the existing document, and keys
// written by other experiments (e.g. the jobmix series next to the planner
// rows) are preserved. A missing or unreadable document starts fresh.
func mergeBenchJSON(path string, v any) error {
	doc := map[string]json.RawMessage{}
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &doc); err != nil {
			doc = map[string]json.RawMessage{}
		}
	}
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		return err
	}
	for k, val := range m {
		doc[k] = val
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
