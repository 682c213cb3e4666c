package main

import (
	"fmt"
	"io"
	"os"

	"opass/internal/experiments"
)

// options are the flags that shape what a study's run leaves behind.
type options struct {
	cfg       experiments.Config
	outDir    string // "" disables CSV export
	repeats   int    // 1 = single run
	benchJSON string // "" disables the BENCH_planner.json merge
	scaleJSON string // "" disables the BENCH_scale.json export
}

// extras are the two runs that are not catalogue studies: scale's runs
// after the catalogue study of the same name, planner on its own.
var extras = map[string]func(io.Writer, options) error{
	"scale": func(w io.Writer, o options) error {
		return scaleStudy(w, o.cfg.Scale, o.cfg.Seed, o.scaleJSON)
	},
	"planner": func(w io.Writer, o options) error { return plannerExperiment(w, o.benchJSON) },
}

// benchMain regenerates the figures of the Opass paper's evaluation from the
// simulated substrate and prints them as text rows.
//
//	opass bench [flags] [study ...]
//
// The studies are the catalogue of internal/experiments (opass bench -h
// lists them and the flags; EXPERIMENTS.md discusses each); with no
// arguments every one runs in catalogue order. Two names run more than a
// catalogue study:
//
//	scale    after the §V-C2 planner timings, drives the full streaming
//	         request path at bulk scale (1k→10k procs carrying 100k→1M
//	         tasks at -scale 1; see -scalejson)
//	planner  planner hot-path microbenchmarks (probe vs locality index;
//	         see -benchjson); not part of the default run
func benchMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := newFlagSet("bench", stderr)
	fs.Int64Var(&o.cfg.Seed, "seed", 42, "random seed for placement and scheduling")
	fs.IntVar(&o.cfg.Scale, "scale", 1, "divide paper cluster sizes by this factor")
	fs.StringVar(&o.outDir, "out", "", "directory to write figure data as CSV (created if missing)")
	fs.IntVar(&o.repeats, "repeat", 1, "repeat trace studies over this many seeds and report mean±sd")
	fs.StringVar(&o.benchJSON, "benchjson", "", "merge planner, jobmix, advisor and racks results into this JSON file")
	fs.StringVar(&o.scaleJSON, "scalejson", "", "write the scale study's streaming-path trajectory as JSON to this file (the committed BENCH_scale.json is generated this way)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: opass bench [flags] [study ...]\n\nstudies:\n")
		for _, st := range experiments.Catalog() {
			fmt.Fprintf(stderr, "  %-19s %s\n", st.Name, st.Title)
		}
		fmt.Fprintf(stderr, "  %-19s planner hot-path microbenchmarks (not in the default run)\n\nflags:\n", "planner")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "opass bench: %v\n", err)
			return 1
		}
	}
	names := fs.Args()
	if len(names) == 0 {
		for _, st := range experiments.Catalog() {
			names = append(names, st.Name)
		}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := runStudy(stdout, name, o); err != nil {
			fmt.Fprintf(stderr, "opass bench: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

// runStudy executes one named study and whatever its result offers beyond
// the rendered rows: plots, seed replication, CSV export, the BENCH merge.
func runStudy(w io.Writer, name string, o options) error {
	st, known := experiments.Lookup(name)
	extra := extras[name]
	if !known && extra == nil {
		return fmt.Errorf("unknown study %q (opass bench -h lists them)", name)
	}
	if known {
		res, err := st.Run(o.cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		if _, ok := res.(*experiments.TraceResult); ok && o.repeats > 1 {
			rep, err := experiments.Replicate(st, o.cfg, o.repeats)
			if err != nil {
				return err
			}
			fmt.Fprint(w, rep.Render())
		}
		if p, ok := res.(interface{ Plot() string }); ok {
			fmt.Fprint(w, p.Plot())
		}
		if e, ok := res.(interface{ Export(dir, name string) error }); ok && o.outDir != "" {
			if err := e.Export(o.outDir, st.Name); err != nil {
				return err
			}
			fmt.Fprintf(w, "(wrote %s CSVs to %s)\n", st.Name, o.outDir)
		}
		if k, ok := res.(interface{ BenchKey() string }); ok && o.benchJSON != "" {
			if err := mergeBenchJSON(o.benchJSON, map[string]any{k.BenchKey(): res}); err != nil {
				return err
			}
			fmt.Fprintf(w, "(wrote %s)\n", o.benchJSON)
		}
	}
	if extra != nil {
		return extra(w, o)
	}
	return nil
}
