package main

import (
	"bytes"
	"strings"
	"testing"
)

// invoke runs the toolbox in-process the way main does.
func invoke(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// TestSubcommands runs every subcommand at small scale: exit 0, nothing on
// stderr, and the stable first line of its output.
func TestSubcommands(t *testing.T) {
	for _, c := range []struct {
		args      string
		firstLine string
	}{
		{"verify -scale 8", "PASS sec3-locality-decay "},
		{"report -scale 8", "# Opass reproduction report"},
		{"analyze -nodes 64 -trials 0", "§III-A — CDF of chunks read locally, n=512 chunks, r=3"},
		{"sim -nodes 8", "strategy          opass"},
		{"sim -nodes 8 -json", "{"},
		{"bench -scale 8 fig3", "Figure 3 — CDF of chunks read locally (n=512, r=3)"},
	} {
		status, stdout, stderr := invoke(strings.Fields(c.args)...)
		if status != 0 || stderr != "" {
			t.Errorf("opass %s: exit %d, stderr %q", c.args, status, stderr)
		}
		first, _, _ := strings.Cut(stdout, "\n")
		if !strings.HasPrefix(first, c.firstLine) {
			t.Errorf("opass %s: first line %q, want prefix %q", c.args, first, c.firstLine)
		}
	}
}

// TestUsage pins the dispatcher: what is not a subcommand gets the usage
// listing all five, on the stream and with the status a shell expects.
func TestUsage(t *testing.T) {
	for _, c := range []struct {
		args     []string
		status   int
		onStdout bool
	}{
		{nil, 2, false},
		{[]string{"frobnicate"}, 2, false},
		{[]string{"-h"}, 0, true},
	} {
		status, stdout, stderr := invoke(c.args...)
		if status != c.status {
			t.Errorf("opass %v: exit %d, want %d", c.args, status, c.status)
		}
		text, other := stderr, stdout
		if c.onStdout {
			text, other = stdout, stderr
		}
		if other != "" {
			t.Errorf("opass %v: usage on the wrong stream: %q", c.args, other)
		}
		for _, sc := range subcommands {
			if !strings.Contains(text, "\n  "+sc.name+" ") {
				t.Errorf("opass %v: usage does not list %q:\n%s", c.args, sc.name, text)
			}
		}
	}
	if _, _, stderr := invoke("frobnicate"); !strings.Contains(stderr, `"frobnicate"`) {
		t.Errorf("unknown subcommand not named: %q", stderr)
	}
}

func TestBenchUnknownStudy(t *testing.T) {
	status, stdout, stderr := invoke("bench", "-scale", "8", "fig99")
	if status != 1 || stdout != "" || !strings.Contains(stderr, `"fig99"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 naming the study", status, stdout, stderr)
	}
}

// TestAnalyzeRejectsBadParameters: parameters outside the §III model are a
// one-line error before any output, not a panic out of the library.
func TestAnalyzeRejectsBadParameters(t *testing.T) {
	for _, args := range []string{
		"-replication 0",
		"-replication -1",
		"-chunks 0",
		"-chunks -3",
		"-nodes 64,2",
		"-nodes 64,x",
		"-nodes 0 -replication 0",
		"-k -1",
		"-trials -1",
	} {
		status, stdout, stderr := invoke(append([]string{"analyze"}, strings.Fields(args)...)...)
		if status != 1 || stdout != "" {
			t.Errorf("opass analyze %s: exit %d, stdout %q; want exit 1 and no output", args, status, stdout)
		}
		if !strings.HasPrefix(stderr, "opass analyze: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("opass analyze %s: stderr %q, want one `opass analyze: …` line", args, stderr)
		}
	}
}
