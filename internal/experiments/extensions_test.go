package experiments

import (
	"strings"
	"testing"
)

func TestDynamicStrategiesOrdering(t *testing.T) {
	r, err := DynamicStrategies(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Locality: both locality-aware masters far above random; delay may
	// edge out Opass by a hair (it maximizes per-dispatch locality at the
	// cost of balance), so only a small deficit is tolerated.
	if r.Delay.Local <= r.Random.Local {
		t.Fatalf("delay locality %v <= random %v", r.Delay.Local, r.Random.Local)
	}
	if r.Opass.Local < r.Delay.Local-0.05 {
		t.Fatalf("opass locality %v far below delay %v", r.Opass.Local, r.Delay.Local)
	}
	// Both locality-aware masters must beat the random master decisively on
	// makespan; Opass and delay trade places within noise at reduced scale
	// (at paper scale Opass's pre-balanced lists win — see EXPERIMENTS.md),
	// so only parity is asserted here.
	if r.Opass.Makespan > 0.8*r.Random.Makespan || r.Delay.Makespan > 0.8*r.Random.Makespan {
		t.Fatalf("locality-aware masters not clearly faster: random %v delay %v opass %v",
			r.Random.Makespan, r.Delay.Makespan, r.Opass.Makespan)
	}
	if r.Opass.Makespan > r.Delay.Makespan*1.15 {
		t.Fatalf("opass makespan %v far worse than delay %v", r.Opass.Makespan, r.Delay.Makespan)
	}
	if r.Opass.IO.Mean >= r.Random.IO.Mean {
		t.Fatal("opass mean I/O not better than random")
	}
	if !strings.Contains(r.Render(), "delay-scheduling") {
		t.Fatal("render missing delay row")
	}
}

func TestHeteroDynamicBeatsStatic(t *testing.T) {
	r, err := HeteroStaticVsDynamic(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Dynamic.Makespan >= r.Static.Makespan {
		t.Fatalf("dynamic makespan %v >= static %v on heterogeneous cluster",
			r.Dynamic.Makespan, r.Static.Makespan)
	}
	// Stealing necessarily sacrifices some locality; it must not collapse.
	if r.Dynamic.Local < 0.5 {
		t.Fatalf("dynamic locality collapsed to %v", r.Dynamic.Local)
	}
	if !strings.Contains(r.Render(), "speedup") {
		t.Fatal("render missing speedup")
	}
}

func TestHeteroWeightedBeatsEqualStatic(t *testing.T) {
	r, err := HeteroStaticVsDynamic(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Capacity weighting moves work off slow nodes: faster than the equal
	// split while keeping a static schedule.
	if r.Weighted.Makespan >= r.Static.Makespan {
		t.Fatalf("weighted static %v not faster than equal static %v",
			r.Weighted.Makespan, r.Static.Makespan)
	}
	if !strings.Contains(r.Render(), "capacity-weighted") {
		t.Fatal("render missing weighted row")
	}
}
