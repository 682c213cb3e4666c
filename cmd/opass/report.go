package main

import (
	"fmt"
	"io"
	"os"

	"opass/internal/experiments"
)

// reportMain runs every paper experiment and writes a paper-vs-measured markdown
// report — the machine-generated counterpart of EXPERIMENTS.md, for
// archiving reproduction runs.
//
//	opass report [-seed N] [-scale N] [-o report.md]
func reportMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("report", stderr)
	seed := fs.Int64("seed", 42, "random seed")
	scale := fs.Int("scale", 1, "cluster-size divisor (1 = paper scale)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	md, err := experiments.MarkdownReport(experiments.Config{Seed: *seed, Scale: *scale})
	if err == nil {
		if *out == "" {
			_, err = io.WriteString(stdout, md)
		} else {
			err = os.WriteFile(*out, []byte(md), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "opass report:", err)
		return 1
	}
	return 0
}
