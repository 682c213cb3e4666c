package main

import (
	"fmt"
	"io"

	"opass/internal/experiments"
)

// verifyMain checks the reproduction's headline claims end to end and prints one
// PASS/FAIL row per claim — a fast self-check that the simulated substrate
// still reproduces the paper's shapes on this machine, without running the
// full test suite. The claims are those the checked studies of the
// internal/experiments catalogue state.
//
//	opass verify [-seed N] [-scale N]
//
// Exit status is non-zero if any claim fails.
func verifyMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("verify", stderr)
	seed := fs.Int64("seed", 42, "random seed")
	scale := fs.Int("scale", 2, "cluster-size divisor (1 = paper scale)")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	cfg := experiments.Config{Seed: *seed, Scale: *scale}

	checks, failures := 0, 0
	row := func(ok bool, name, statement, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		checks++
		fmt.Fprintf(stdout, "%-4s %-22s %-55s %s\n", status, name, statement, detail)
	}
	for _, st := range experiments.Catalog() {
		if !st.Checked {
			continue
		}
		res, err := st.Run(cfg)
		if err != nil {
			row(false, st.Name, st.Title, err.Error())
			continue
		}
		if c, ok := res.(experiments.Claimer); ok {
			for _, claim := range c.Claims() {
				row(claim.Holds, claim.Name, claim.Statement, claim.Detail)
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "opass verify: %d of %d checks failed\n", failures, checks)
		return 1
	}
	fmt.Fprintf(stdout, "all %d checks passed\n", checks)
	return 0
}
