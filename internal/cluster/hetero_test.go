package cluster

import (
	"math"
	"testing"
)

func TestHeterogeneousProfilesApply(t *testing.T) {
	fast := Marmot()
	slow := Marmot()
	slow.DiskMBps = 25 // a worn disk at a third of the speed
	topo := NewHeterogeneousRacked([]Profile{fast, slow, fast}, 1)
	if topo.NumNodes() != 3 {
		t.Fatalf("nodes = %d", topo.NumNodes())
	}
	if topo.NodeProfile(1).DiskMBps != 25 {
		t.Fatalf("node 1 profile lost: %+v", topo.NodeProfile(1))
	}
	// A local read on the slow node takes ~3x the fast node's time.
	net := topo.Net()
	net.Start(topo.LocalReadPath(0), 64, topo.ReadLatency(0), 0)
	tFast := net.Run()
	net.Start(topo.LocalReadPath(1), 64, topo.ReadLatency(1), 0)
	tSlow := net.Run() - tFast
	if ratio := tSlow / tFast; math.Abs(ratio-3.0) > 0.1 {
		t.Fatalf("slow/fast read ratio = %v, want ~3", ratio)
	}
}

func TestHeterogeneousValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewHeterogeneousRacked(nil, 1) },
		func() { NewHeterogeneousRacked([]Profile{{DiskMBps: 0, NICMBps: 100}}, 1) },
		func() { NewHeterogeneousRacked([]Profile{{DiskMBps: 100, NICMBps: -1}}, 1) },
		func() { NewHeterogeneousRacked([]Profile{Marmot()}, 0) },
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

func TestReadLatencyPerNode(t *testing.T) {
	a, b := Marmot(), Marmot()
	b.ReadLatency = 0.2
	topo := NewHeterogeneousRacked([]Profile{a, b}, 1)
	if topo.ReadLatency(0) != a.ReadLatency || topo.ReadLatency(1) != 0.2 {
		t.Fatal("per-node latency wrong")
	}
}

func TestHomogeneousStillUniform(t *testing.T) {
	topo := New(4, Marmot())
	for i := 0; i < 4; i++ {
		if topo.NodeProfile(i) != Marmot() {
			t.Fatalf("node %d profile differs", i)
		}
	}
}

func TestRackUplinksAddedToCrossRackPaths(t *testing.T) {
	topo := NewRacked(8, 2, Marmot())
	topo.SetPerRackUplinks([]float64{500, 500})
	// Same rack (0 and 2 are both rack 0): 3 resources.
	if p := topo.AppendReadPath(nil, 0, 2); len(p) != 3 {
		t.Fatalf("same-rack path length %d, want 3", len(p))
	}
	// Cross rack (0 is rack 0, 1 is rack 1): 5 resources.
	if p := topo.AppendReadPath(nil, 0, 1); len(p) != 5 {
		t.Fatalf("cross-rack path length %d, want 5", len(p))
	}
}

func TestRackUplinkContention(t *testing.T) {
	// Two racks of 4; a 100 MB/s uplink shared by three concurrent
	// cross-rack reads becomes the bottleneck (~33 MB/s each), while the
	// same traffic within a rack runs at disk speed.
	topo := NewRacked(8, 2, Marmot())
	topo.SetPerRackUplinks([]float64{100, 100})
	net := topo.Net()
	// Readers on rack 1 (nodes 1,3,5) pull from distinct rack-0 disks
	// (nodes 0,2,4): all three flows share rack0's uplink-out.
	for i := 0; i < 3; i++ {
		net.Start(topo.AppendReadPath(nil, 2*i, 2*i+1), 64, 0, 0)
	}
	end := net.Run()
	// 3x64 MB over a 100 MB/s shared uplink: at least 1.92s.
	if end < 1.9 {
		t.Fatalf("cross-rack end %v, want >= 1.92 (uplink-bound)", end)
	}
}

func TestRackUplinkValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { New(4, Marmot()).SetPerRackUplinks([]float64{100}) },               // single rack
		func() { NewRacked(4, 2, Marmot()).SetPerRackUplinks([]float64{0, 0}) },     // zero bw
		func() { NewRacked(4, 2, Marmot()).SetPerRackUplinks([]float64{-10, -10}) }, // negative
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
