// Command opass is the reproduction's toolbox: every tool that is not the
// opassd service is one of its subcommands (bench, verify, report, analyze,
// sim).
//
//	opass <subcommand> [flags] [args]
//
// `opass -h` lists the subcommands, `opass <subcommand> -h` a subcommand's
// flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// subcommand is one tool: it parses args with its own flag set, writes its
// result to stdout and diagnostics to stderr, and returns the exit status.
type subcommand struct {
	name    string
	summary string
	run     func(args []string, stdout, stderr io.Writer) int
}

var subcommands = []subcommand{
	{"bench", "regenerate the paper's figures from the experiments catalogue", benchMain},
	{"verify", "one PASS/FAIL row per headline claim", verifyMain},
	{"report", "paper-vs-measured markdown report", reportMain},
	{"analyze", "the §III analytical models for arbitrary cluster parameters", analyzeMain},
	{"sim", "one simulation run with explicit parameters", simMain},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	if args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		usage(stdout)
		return 0
	}
	for _, c := range subcommands {
		if c.name == args[0] {
			return c.run(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "opass: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: opass <subcommand> [flags] [args]\n\nsubcommands:\n")
	for _, c := range subcommands {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
	fmt.Fprintf(w, "\n`opass <subcommand> -h` lists a subcommand's flags.\n")
}

// newFlagSet returns the flag set of one subcommand; usage and parse errors
// go to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("opass "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseExit is the exit status after fs.Parse fails, as flag.ExitOnError
// would choose it: 0 after -h, 2 after a bad flag. The flag set has already
// printed the message and usage.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}
