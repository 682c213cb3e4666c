package experiments

import (
	"math"
	"strings"
	"testing"
)

// quick returns a config that shrinks the paper's 64-node experiments to 16
// nodes — large enough for every qualitative effect, fast enough for CI.
func quick() Config { return Config{Seed: 42, Scale: 4} }

func TestFig1ShowsImbalance(t *testing.T) {
	r, err := Fig1(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1b: read times vary widely under the baseline. (The hot-and-idle
	// node claim of Figure 1a is checked by TestCatalogueClaimsHold.)
	if r.Run.IO.Spread() < 2 {
		t.Fatalf("I/O spread %.2f, expected > 2x", r.Run.IO.Spread())
	}
	if !strings.Contains(r.Render(), "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestFig3MatchesPaperNumbers(t *testing.T) {
	r, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	// The m=128 probability and the §III-B node counts are claims
	// (TestCatalogueClaimsHold); the other quoted sizes are checked here.
	for m, paper := range map[int]float64{64: 0.8109, 256: 0.0164, 512: 0.0046} {
		if math.Abs(r.PGreater5[m]-paper) > 0.02 {
			t.Fatalf("P(X>5)|m=%d = %v, paper %v", m, r.PGreater5[m], paper)
		}
	}
	out := r.Render()
	for _, want := range []string{"Figure 3", "81.09%", "Monte-Carlo"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestSweepShapeMatchesFig7(t *testing.T) {
	r, err := SingleDataSweep(Config{Seed: 7, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Opass beats the baseline on mean I/O time at every size.
		if row.Opass.IO.Mean >= row.Baseline.IO.Mean {
			t.Fatalf("nodes=%d: opass mean %v >= baseline %v",
				row.X, row.Opass.IO.Mean, row.Baseline.IO.Mean)
		}
		// Opass locality is high; baseline's decays with cluster size.
		if row.Opass.Local < 0.9 {
			t.Fatalf("nodes=%d: opass locality %v", row.X, row.Opass.Local)
		}
	}
	// Figure 7a: the baseline's max I/O time grows with cluster size while
	// Opass stays flat.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.Baseline.IO.Max <= first.Baseline.IO.Max {
		t.Fatalf("baseline max I/O did not grow: %v -> %v",
			first.Baseline.IO.Max, last.Baseline.IO.Max)
	}
	if last.Opass.IO.Mean > 2*first.Opass.IO.Mean {
		t.Fatalf("opass mean not flat: %v -> %v", first.Opass.IO.Mean, last.Opass.IO.Mean)
	}
	if !strings.Contains(r.Render(), "Figure 7") {
		t.Fatal("render missing title")
	}
}

func TestFig7cTraceShape(t *testing.T) {
	r, err := Fig7cTrace(quick())
	if err != nil {
		t.Fatal(err)
	}
	// The >= 2x improvement, Opass's locality and the Figure 8c balance are
	// claims (TestCatalogueClaimsHold). >90% of data is remote without Opass
	// (§V-A1).
	if r.Baseline.Local > 0.35 {
		t.Fatalf("baseline locality %v unexpectedly high", r.Baseline.Local)
	}
	if !strings.Contains(r.Render(), "7c/8c") {
		t.Fatal("render missing title")
	}
}

func TestFig9TraceShape(t *testing.T) {
	r, err := Fig9Trace(quick())
	if err != nil {
		t.Fatal(err)
	}
	// §V-A2's partial improvement is a claim (TestCatalogueClaimsHold).
	if r.Opass.Local <= r.Baseline.Local {
		t.Fatal("opass locality not better")
	}
}

func TestFig11TraceShape(t *testing.T) {
	r, err := Fig11Trace(quick())
	if err != nil {
		t.Fatal(err)
	}
	// §V-A3's improvement factor is a claim (TestCatalogueClaimsHold).
	if r.Opass.Local <= r.Baseline.Local {
		t.Fatal("opass dynamic locality not better")
	}
}

func TestFig12Shape(t *testing.T) {
	r, err := Fig12(quick())
	if err != nil {
		t.Fatal(err)
	}
	// §V-B's lower mean and tighter deviation are a claim
	// (TestCatalogueClaimsHold); the total execution time drops too.
	if r.Opass.TotalSeconds >= r.Stock.TotalSeconds {
		t.Fatalf("opass total %v >= stock %v", r.Opass.TotalSeconds, r.Stock.TotalSeconds)
	}
	if !strings.Contains(r.Render(), "Figure 12") {
		t.Fatal("render missing title")
	}
}

func TestOverheadTiny(t *testing.T) {
	r, err := Overhead(quick())
	if err != nil {
		t.Fatal(err)
	}
	// §V-C1's "under 1%" is a claim (TestCatalogueClaimsHold).
	if r.LocalityGained < 0.9 {
		t.Fatalf("planned locality %v", r.LocalityGained)
	}
	if !strings.Contains(r.Render(), "overhead") {
		t.Fatal("render missing")
	}
}

func TestPlannerScaleRows(t *testing.T) {
	res, err := PlannerScale(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.EKWall <= 0 || r.DinicWall <= 0 || r.Algorithm1 <= 0 {
			t.Fatalf("non-positive wall time: %+v", r)
		}
	}
	if !strings.Contains(res.Render(), "planner wall time") {
		t.Fatal("render missing")
	}
}

func TestAblationPlacement(t *testing.T) {
	r, err := AblationPlacement(quick())
	if err != nil {
		t.Fatal(err)
	}
	// With a quarter of the nodes empty, a full matching is impossible;
	// after the balancer, achievable locality improves.
	if r.Skewed.Planned >= r.Balanced.Planned {
		t.Fatalf("balancer did not improve achievable locality: %v vs %v",
			r.Skewed.Planned, r.Balanced.Planned)
	}
	if !strings.Contains(r.Render(), "Ablation") {
		t.Fatal("render missing")
	}
}

func TestConfigScale(t *testing.T) {
	if (Config{}).scale(64) != 64 {
		t.Fatal("zero scale must be identity")
	}
	if (Config{Scale: 4}).scale(64) != 16 {
		t.Fatal("scale 4 wrong")
	}
	if (Config{Scale: 100}).scale(64) != 4 {
		t.Fatal("scale floor wrong")
	}
}
