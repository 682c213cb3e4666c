package cluster

import (
	"math"
	"testing"
)

func TestMarmotCalibration(t *testing.T) {
	topo := New(4, Marmot())
	got := topo.UncontendedLocalRead(64)
	// The paper reports ~0.9 s per uncontended local 64 MB chunk read.
	if got < 0.8 || got > 1.0 {
		t.Fatalf("local 64 MB read = %v s, want ~0.87 s", got)
	}
	remote := topo.UncontendedRemoteRead(64)
	if remote < got {
		t.Fatalf("remote read %v faster than local %v", remote, got)
	}
}

func TestLocalPathUsesOnlyDisk(t *testing.T) {
	topo := New(3, Marmot())
	p := topo.LocalReadPath(1)
	if len(p) != 1 || p[0] != topo.DiskResource(1) {
		t.Fatalf("local path = %v, want just node 1's disk", p)
	}
}

func TestRemotePathCrossesThreeResources(t *testing.T) {
	topo := New(3, Marmot())
	p := topo.AppendReadPath(nil, 0, 2)
	if len(p) != 3 {
		t.Fatalf("remote path length = %d, want 3 (disk, tx, rx)", len(p))
	}
	if p[0] != topo.DiskResource(0) {
		t.Fatalf("remote path must start at source disk")
	}
}

func TestRemotePathDegeneratesToLocal(t *testing.T) {
	topo := New(3, Marmot())
	p := topo.AppendReadPath(nil, 1, 1)
	if len(p) != 1 {
		t.Fatalf("same-node remote read should be local, got path %v", p)
	}
}

func TestSimulatedLocalReadMatchesCalibration(t *testing.T) {
	topo := New(2, Marmot())
	net := topo.Net()
	net.Start(topo.LocalReadPath(0), 64, topo.NodeProfile(0).ReadLatency, 0)
	end := net.Run()
	want := topo.UncontendedLocalRead(64)
	if math.Abs(end-want) > 1e-6 {
		t.Fatalf("simulated read %v, calibrated %v", end, want)
	}
}

func TestRackAssignmentRoundRobin(t *testing.T) {
	topo := NewRacked(8, 3, Marmot())
	if topo.racks != 3 {
		t.Fatalf("racks = %d, want 3", topo.racks)
	}
	for i := 0; i < 8; i++ {
		if topo.RackOf(i) != i%3 {
			t.Fatalf("node %d rack = %d, want %d", i, topo.RackOf(i), i%3)
		}
	}
}

func TestPanicsOnInvalidNode(t *testing.T) {
	topo := New(2, Marmot())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range node")
		}
	}()
	topo.LocalReadPath(5)
}

func TestPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero nodes")
		}
	}()
	New(0, Marmot())
}

func TestDiskContentionInflatesReads(t *testing.T) {
	// Eight concurrent remote readers pulling from one disk should take far
	// longer than 8x a single stream's share would suggest, because of the
	// seek penalty — this is the physical effect behind the paper's Figure 1.
	topo := New(9, Marmot())
	net := topo.Net()
	for dst := 1; dst <= 8; dst++ {
		net.Start(topo.AppendReadPath(nil, 0, dst), 64, topo.NodeProfile(0).ReadLatency, 0)
	}
	end := net.Run()
	ideal := 8 * 64.0 / topo.NodeProfile(0).DiskMBps // fair share, no penalty
	if end <= ideal {
		t.Fatalf("contended end %v should exceed penalty-free bound %v", end, ideal)
	}
	// And it must stay within the modeled degradation.
	alpha := topo.NodeProfile(0).DiskSeekPenalty
	worst := 8*64.0/(topo.NodeProfile(0).DiskMBps/(1+alpha*7)) + 1
	if end > worst {
		t.Fatalf("contended end %v exceeds modeled worst case %v", end, worst)
	}
}

// TestResetMatchesNew: a racked topology with uplinks, a degraded node and a
// read in flight, Reset to another size, is the topology New builds: the
// same nodes, racks, paths and resource IDs, every device at nominal
// bandwidth with no work done, an idle network at time zero — and the same
// reads take the same simulated time on both.
func TestResetMatchesNew(t *testing.T) {
	reset := NewRacked(12, 3, Marmot())
	reset.SetRackOversubscription(4)
	reset.DegradeNode(2, 0.5, 0.25)
	net := reset.Net()
	net.Start(reset.AppendReadPath(nil, 2, 7), 64, reset.ReadLatency(2), 0)
	net.Step()
	for _, nodes := range []int{5, 12, 20} {
		reset.Reset(nodes, Marmot())
		fresh := New(nodes, Marmot())
		if reset.NumNodes() != nodes || reset.racks != 1 || reset.uplinkOut != nil {
			t.Fatalf("reset to %d nodes: %d nodes, %d racks, uplinks %v", nodes, reset.NumNodes(), reset.racks, reset.uplinkOut)
		}
		rn, fn := reset.Net(), fresh.Net()
		if rn.Now() != 0 || rn.Started() != 0 || rn.Active() != 0 {
			t.Fatalf("reset to %d nodes: clock %v, %d flows started, %d active", nodes, rn.Now(), rn.Started(), rn.Active())
		}
		for node := 0; node < nodes; node++ {
			for _, id := range reset.AppendReadPath(nil, node, (node+1)%nodes) {
				if rn.Scale(id) != 1 || rn.WorkMB(id) != 0 {
					t.Fatalf("reset to %d nodes: resource %d at scale %v with %v MB of work", nodes, id, rn.Scale(id), rn.WorkMB(id))
				}
			}
			if reset.DiskResource(node) != fresh.DiskResource(node) || reset.NodeProfile(node) != fresh.NodeProfile(node) {
				t.Fatalf("reset to %d nodes: node %d differs from a new topology's", nodes, node)
			}
		}
		for _, topo := range []*Topology{reset, fresh} {
			for node := 0; node < nodes; node++ {
				topo.Net().Start(topo.AppendReadPath(nil, node, (node*5+3)%nodes), 64, topo.ReadLatency(node), node)
			}
		}
		if r, f := rn.Run(), fn.Run(); math.Float64bits(r) != math.Float64bits(f) {
			t.Fatalf("reset to %d nodes: the reads end at %v, on a new topology at %v", nodes, r, f)
		}
	}
}
