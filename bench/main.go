// Command bench is the repository's benchmark: it drives an in-process
// opassd (internal/httpapi) over loopback HTTP from one closed-loop client,
// validates every response, and reports the end-to-end metrics a caller of
// the service pays for plus, from a second traced pass, per-layer metrics
// timed from outside the program. See README.md in this directory.
//
//	go run ./bench                                  all workloads, one run each
//	go run ./bench -workload paper-single -seed 7   one workload
//	go run ./bench -compare a.json b.json           judge two result sets
//
// With -workload the last line of standard output is the one-object result
// BENCHMARK.json's contract asks for; without it, the whole result set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// resultSet is what one invocation measured; -out stores it and -compare
// reads two of them.
type resultSet struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
	// Claim is always null: this benchmark defines the instrument, it does
	// not claim a gain.
	Claim *string `json:"claim"`
}

type environment struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"go_max_procs"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Scale      int     `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

type workloadResult struct {
	Name string       `json:"name"`
	Runs []*runResult `json:"runs"`
}

// values lists one metric over the runs.
func (wr *workloadResult) values(get func(*runResult) map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range wr.Runs {
		out = append(out, get(r)[name])
	}
	return out
}

func endToEndOf(r *runResult) map[string]float64 { return r.EndToEnd }
func perLayerOf(r *runResult) map[string]float64 { return r.PerLayer }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed: bodies, fault nodes and the cache-mix sequence derive from it; run i of -runs uses seed+i")
	only := fs.String("workload", "", "run one workload and end with its one-line JSON result (default: all)")
	seconds := fs.Float64("seconds", 0, "bound each timed loop by time instead of the workload's request count")
	trace := fs.Int("trace", 1, "1: also run the traced pass and report per-layer metrics; 0: end-to-end only")
	scale := fs.Int("scale", 1, "divide request counts by this, for smoke runs")
	runs := fs.Int("runs", 1, "runs per workload; -compare judges medians and spreads over them")
	out := fs.String("out", filepath.Join("bench", "out", "results.json"), "result set file; trace-<workload>.json is written beside it")
	compare := fs.Bool("compare", false, "compare two result sets: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *scale < 1 || *runs < 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments, or -scale/-runs below 1, or negative -seconds")
		return 2
	}
	selected := workloads
	if *only != "" {
		w := findWorkload(*only)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
			return 2
		}
		selected = []workload{*w}
	}

	set := &resultSet{Env: environment{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: *seed, Runs: *runs, Scale: *scale, Seconds: *seconds,
	}}
	failed := false
	for i := range selected {
		w := &selected[i]
		wr := workloadResult{Name: w.Name}
		for r := 0; r < *runs; r++ {
			res, err := runWorkload(w, runConfig{
				seed: *seed + int64(r), seconds: *seconds, scale: *scale,
				trace: *trace != 0, traceProblems: 16, setupReps: 5,
				traceDir: filepath.Dir(*out),
			})
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			failed = failed || res.Failed > 0
			wr.Runs = append(wr.Runs, res)
			printRun(stdout, w, res)
		}
		set.Workloads = append(set.Workloads, wr)
	}
	if err := writeJSON(*out, set); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult set written to %s\n", *out)

	var last any = set
	if *only != "" {
		last = contractLine(&set.Workloads[0], *trace != 0)
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed {
		return 1
	}
	return 0
}

// printRun prints every metric of one run by name, with its unit.
func printRun(out io.Writer, w *workload, r *runResult) {
	noisy := ""
	if r.Noisy {
		noisy = "  NOISY HOST: spin loop drifted more than 10%"
	}
	fmt.Fprintf(out, "\n== %s  seed %d  %s  %d procs x %d tasks x %d inputs  requests %d  failed %d%s\n",
		w.Name, r.Seed, w.Route, w.Procs, w.Tasks, len(w.Sizes), r.Attempted, r.Failed, noisy)
	for _, e := range r.Errors {
		fmt.Fprintf(out, "   FAILED %s\n", e)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "   %-30s %14.6g %s\n", m.Name, r.EndToEnd[m.Name], m.Unit)
	}
	fmt.Fprintf(out, "   %-30s %14.6g ms  (information only; %d samples)\n", "req_p99_ms", r.P99, r.Attempted)
	if r.PerLayer == nil {
		return
	}
	fmt.Fprintf(out, "  -- traced pass, medians over the replayed problems\n")
	for _, m := range perLayer {
		fmt.Fprintf(out, "   %-30s %14.6g %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
	}
	// How the workloads separate the layers, and whether the outside
	// reconstruction measures the work the service does.
	serve := r.PerLayer["httpapi.serve_ms"]
	planner, assign := r.PerLayer["core.planner_ms"], r.PerLayer["core.assign_ms"]
	fmt.Fprintf(out, "  -- shares of httpapi.serve_ms: bipartite.match %.2f  httpapi.nonplanner %.2f  engine.run %.2f;  p90/p50 %.1f\n",
		r.PerLayer["bipartite.match_ms"]/serve, r.PerLayer["httpapi.nonplanner_ms"]/serve,
		r.PerLayer["engine.run_ms"]/serve, r.EndToEnd["req_p90_ms"]/r.EndToEnd["req_p50_ms"])
	fmt.Fprintf(out, "  -- core.planner_ms %.3f vs core.assign_ms %.3f: within max(15%%, 1 ms): %v\n",
		planner, assign, math.Abs(planner-assign) <= max(0.15*planner, 1))
}

// contractLine is the one-object result for a single workload: medians over
// its runs of the end-to-end metrics, or with tracing of the per-layer ones.
func contractLine(wr *workloadResult, traced bool) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, get := endToEnd, endToEndOf
	if traced {
		defs, get = perLayer, perLayerOf
	}
	metrics := map[string]value{}
	for _, m := range defs {
		if m.Name == "failed_frac" {
			continue // carried by failed/attempted
		}
		metrics[m.Name] = value{median(wr.values(get, m.Name)), m.Unit}
	}
	attempted, failed := 0, 0
	for _, r := range wr.Runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics}
}
