package experiments

import (
	"math"
	"testing"
	quickcheck "testing/quick"
)

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 0.3}, {100, 0.05}, {512, 3.0 / 128}, {1, 0.5}} {
		var s float64
		for k := 0; k <= tc.n; k++ {
			s += BinomialPMF(tc.n, tc.p, k)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("pmf(n=%d,p=%v) sums to %v", tc.n, tc.p, s)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	if BinomialPMF(5, 0, 0) != 1 || BinomialPMF(5, 0, 1) != 0 {
		t.Fatal("p=0 edge case wrong")
	}
	if BinomialPMF(5, 1, 5) != 1 || BinomialPMF(5, 1, 4) != 0 {
		t.Fatal("p=1 edge case wrong")
	}
	if BinomialCDF(5, 0.5, -1) != 0 || BinomialCDF(5, 0.5, 5) != 1 || BinomialCDF(5, 0.5, 99) != 1 {
		t.Fatal("cdf boundary wrong")
	}
	if BinomialPMF(5, 0.5, 6) != 0 || BinomialPMF(5, 0.5, -1) != 0 {
		t.Fatal("out-of-support pmf not zero")
	}
}

func TestBinomialAgainstKnownValues(t *testing.T) {
	// Bin(4, 0.5): P(X=2) = 6/16.
	if got := BinomialPMF(4, 0.5, 2); math.Abs(got-0.375) > 1e-12 {
		t.Fatalf("pmf = %v, want 0.375", got)
	}
	// Bin(10, 0.1): P(X<=1) = 0.9^10 + 10*0.1*0.9^9 = 0.73609893...
	want := math.Pow(0.9, 10) + 10*0.1*math.Pow(0.9, 9)
	if got := BinomialCDF(10, 0.1, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cdf = %v, want %v", got, want)
	}
}

// TestFigure3QuotedProbabilities reproduces the §III-A probabilities
// beneath Figure 3 under the 1/m convention (see the package comment).
func TestFigure3QuotedProbabilities(t *testing.T) {
	cases := []struct {
		m    int
		want float64 // paper's P(X > 5)
		tol  float64
	}{
		{64, 0.8109, 0.01},
		{128, 0.2143, 0.01},
		{256, 0.0164, 0.005},
		// The paper prints 0.46% for m=512; the binomial value is ~0.06%.
		// We assert only that the probability is far below 1% there.
		{512, 0.005, 0.005},
	}
	for _, tc := range cases {
		p := LocalReadParams{Chunks: 512, Replication: 3, Nodes: tc.m}
		got := 1 - LocalReadCDFQuoted(p, 5)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("m=%d: P(X>5) = %v, want %v +- %v", tc.m, got, tc.want, tc.tol)
		}
	}
}

func TestLocalityDecaysWithClusterSize(t *testing.T) {
	// The core §III-A observation: P(X>5) decreases (exponentially) in m,
	// under both conventions.
	for _, cdf := range []func(LocalReadParams, int) float64{LocalReadCDF, LocalReadCDFQuoted} {
		prev := 2.0
		for _, m := range []int{64, 128, 256, 512} {
			p := 1 - cdf(LocalReadParams{Chunks: 512, Replication: 3, Nodes: m}, 5)
			if p >= prev {
				t.Fatalf("P(X>5) not decreasing at m=%d: %v >= %v", m, p, prev)
			}
			prev = p
		}
	}
}

// TestServedModelMatchesThinning: placing each chunk on the node with
// probability r/m and then picking a replica with probability 1/r is a
// binomial thinning, so Z must be marginally Binomial(n, 1/m).
func TestServedModelMatchesThinning(t *testing.T) {
	p := LocalReadParams{Chunks: 200, Replication: 3, Nodes: 32}
	for k := 0; k <= 15; k++ {
		lhs := ServedCDF(p, k)
		rhs := BinomialCDF(p.Chunks, 1/float64(p.Nodes), k)
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("k=%d: total-probability %v != thinned binomial %v", k, lhs, rhs)
		}
	}
}

// TestSectionIIIBNodeCounts reproduces the §III-B expected node counts for
// n=512, r=3, m=128 with the m-times-probability prefactor: ~11 nodes
// serving at most 1 chunk and ~6 nodes serving 8 or more.
func TestSectionIIIBNodeCounts(t *testing.T) {
	p := LocalReadParams{Chunks: 512, Replication: 3, Nodes: 128}
	atMost1 := ExpectedNodesServingAtMost(p, 1)
	if math.Abs(atMost1-11) > 1.5 {
		t.Fatalf("E[nodes serving <=1] = %v, paper says 11", atMost1)
	}
	atLeast8 := ExpectedNodesServingAtLeast(p, 8)
	if math.Abs(atLeast8-6) > 1.5 {
		t.Fatalf("E[nodes serving >=8] = %v, paper says 6", atLeast8)
	}
	// The paper's 8X claim: some nodes serve >= 8 chunks while others serve
	// <= 1 — both sets are non-empty in expectation.
	if atMost1 < 1 || atLeast8 < 1 {
		t.Fatal("imbalance sets unexpectedly empty")
	}
}

func TestMonteCarloMatchesClosedForm(t *testing.T) {
	p := LocalReadParams{Chunks: 128, Replication: 3, Nodes: 64}
	mc := MonteCarlo(p, 400, 12, 42)
	for k := 0; k <= 12; k += 3 {
		analytic := LocalReadCDF(p, k)
		if math.Abs(mc.LocalCDF[k]-analytic) > 0.05 {
			t.Errorf("local CDF k=%d: MC %v vs analytic %v", k, mc.LocalCDF[k], analytic)
		}
		served := ServedCDF(p, k)
		if math.Abs(mc.ServedCDF[k]-served) > 0.05 {
			t.Errorf("served CDF k=%d: MC %v vs analytic %v", k, mc.ServedCDF[k], served)
		}
	}
	// Mean locally read chunks = n*r/m = 6.
	if math.Abs(mc.MeanLocal-6) > 0.5 {
		t.Errorf("mean local = %v, want ~6", mc.MeanLocal)
	}
	// The imbalance the paper shows in Figure 1: with 128 chunks on 64
	// nodes (mean 2 per node) the busiest node serves ~6+.
	if mc.MaxServed < 5 {
		t.Errorf("mean max served = %v, expected >= 5 (Figure 1 imbalance)", mc.MaxServed)
	}
}

func TestPropertyCDFsMonotoneAndBounded(t *testing.T) {
	prop := func(rawN, rawR, rawM uint8) bool {
		n := 1 + int(rawN)%200
		m := 2 + int(rawM)%100
		r := 1 + int(rawR)%3
		if r > m {
			r = m
		}
		p := LocalReadParams{Chunks: n, Replication: r, Nodes: m}
		prev := 0.0
		for k := 0; k <= n; k += 1 + n/10 {
			for _, f := range []func(LocalReadParams, int) float64{LocalReadCDF, LocalReadCDFQuoted, ServedCDF} {
				v := f(p, k)
				if v < -1e-9 || v > 1+1e-9 {
					t.Errorf("cdf out of range: %v", v)
					return false
				}
			}
			v := LocalReadCDF(p, k)
			if v+1e-9 < prev {
				t.Errorf("cdf not monotone")
				return false
			}
			prev = v
		}
		if LocalReadCDF(p, n) < 1-1e-9 {
			t.Errorf("cdf at n must be 1")
			return false
		}
		return true
	}
	if err := quickcheck.Check(prop, &quickcheck.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValidatePanics(t *testing.T) {
	for i, fn := range []func(){
		func() { LocalReadCDF(LocalReadParams{Chunks: 0, Replication: 3, Nodes: 8}, 1) },
		func() { LocalReadCDF(LocalReadParams{Chunks: 5, Replication: 9, Nodes: 8}, 1) },
		func() { MonteCarlo(LocalReadParams{Chunks: 5, Replication: 3, Nodes: 8}, 0, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestExpectedMaxServedAgainstMonteCarlo(t *testing.T) {
	for _, tc := range []LocalReadParams{
		{Chunks: 128, Replication: 3, Nodes: 64},
		{Chunks: 512, Replication: 3, Nodes: 128},
		{Chunks: 640, Replication: 3, Nodes: 64},
	} {
		analytic := ExpectedMaxServed(tc)
		mc := MonteCarlo(tc, 300, 1, 7)
		rel := math.Abs(analytic-mc.MaxServed) / mc.MaxServed
		if rel > 0.15 {
			t.Fatalf("%+v: analytic max %v vs MC %v (%.0f%% off)", tc, analytic, mc.MaxServed, 100*rel)
		}
	}
}

func TestExpectedMaxServedFigure1(t *testing.T) {
	// Figure 1(a): 128 chunks on 64 nodes, ideal 2 per node, observed max
	// "more than 6". The model should predict 6-8.
	p := LocalReadParams{Chunks: 128, Replication: 3, Nodes: 64}
	got := ExpectedMaxServed(p)
	if got < 5.5 || got > 8.5 {
		t.Fatalf("E[max served] = %v, paper observes >6", got)
	}
}
