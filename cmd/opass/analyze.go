package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"opass/internal/experiments"
)

// analyzeMain prints the §III analytical results — the binomial model of remote
// parallel reads (Figure 3) and the law-of-total-probability model of
// imbalanced chunk service — for arbitrary cluster parameters, together
// with a Monte-Carlo cross-check.
//
//	opass analyze [-chunks N] [-replication R] [-nodes M[,M...]] [-k K] [-trials T]
func analyzeMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("analyze", stderr)
	chunks := fs.Int("chunks", 512, "number of chunks in the dataset (n)")
	repl := fs.Int("replication", 3, "replication factor (r)")
	nodesCSV := fs.String("nodes", "64,128,256,512", "comma-separated cluster sizes (m)")
	kMax := fs.Int("k", 20, "largest k for the CDF table")
	trials := fs.Int("trials", 500, "Monte-Carlo trials (0 disables)")
	seed := fs.Int64("seed", 42, "Monte-Carlo seed")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	// Everything below feeds experiments.LocalReadParams, which panics on
	// parameters outside the model; reject them here, before any output.
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "opass analyze: "+format+"\n", a...)
		return 1
	}
	switch {
	case *chunks <= 0:
		return fail("-chunks %d must be positive", *chunks)
	case *repl <= 0:
		return fail("-replication %d must be positive", *repl)
	case *kMax < 0:
		return fail("-k %d must not be negative", *kMax)
	case *trials < 0:
		return fail("-trials %d must not be negative", *trials)
	}
	var sizes []int
	for _, tok := range strings.Split(*nodesCSV, ",") {
		m, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || m < *repl {
			return fail("bad cluster size %q", tok)
		}
		sizes = append(sizes, m)
	}
	params := func(m int) experiments.LocalReadParams {
		return experiments.LocalReadParams{Chunks: *chunks, Replication: *repl, Nodes: m}
	}

	fmt.Fprintf(stdout, "§III-A — CDF of chunks read locally, n=%d chunks, r=%d\n", *chunks, *repl)
	fmt.Fprintf(stdout, "(as-written convention p=r/m | quoted convention p=1/m)\n")
	fmt.Fprintf(stdout, "%4s", "k")
	for _, m := range sizes {
		fmt.Fprintf(stdout, "      m=%-14d", m)
	}
	fmt.Fprintln(stdout)
	for k := 0; k <= *kMax; k += 2 {
		fmt.Fprintf(stdout, "%4d", k)
		for _, m := range sizes {
			fmt.Fprintf(stdout, "   %8.4f | %8.4f", experiments.LocalReadCDF(params(m), k), experiments.LocalReadCDFQuoted(params(m), k))
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "\nP(X > 5) per cluster size (quoted convention):\n")
	for _, m := range sizes {
		fmt.Fprintf(stdout, "  m=%-5d %7.2f%%\n", m, 100*(1-experiments.LocalReadCDFQuoted(params(m), 5)))
	}

	fmt.Fprintf(stdout, "\n§III-B — expected node service counts\n")
	for _, m := range sizes {
		fmt.Fprintf(stdout, "  m=%-5d E[nodes serving <=1 chunk]=%6.1f   E[nodes serving >=8 chunks]=%6.1f\n",
			m, experiments.ExpectedNodesServingAtMost(params(m), 1), experiments.ExpectedNodesServingAtLeast(params(m), 8))
	}

	if *trials > 0 {
		fmt.Fprintf(stdout, "\nMonte-Carlo cross-check (%d trials, seed %d)\n", *trials, *seed)
		for _, m := range sizes {
			mc := experiments.MonteCarlo(params(m), *trials, 8, *seed)
			fmt.Fprintf(stdout, "  m=%-5d mean chunks read locally %6.2f (analytic %6.2f)   mean busiest node serves %5.1f chunks\n",
				m, mc.MeanLocal, float64(*chunks)*float64(*repl)/float64(m), mc.MaxServed)
		}
	}
	return 0
}
