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
	p := topo.RemoteReadPath(0, 2)
	if len(p) != 3 {
		t.Fatalf("remote path length = %d, want 3 (disk, tx, rx)", len(p))
	}
	if p[0] != topo.DiskResource(0) {
		t.Fatalf("remote path must start at source disk")
	}
}

func TestRemotePathDegeneratesToLocal(t *testing.T) {
	topo := New(3, Marmot())
	p := topo.RemoteReadPath(1, 1)
	if len(p) != 1 {
		t.Fatalf("same-node remote read should be local, got path %v", p)
	}
}

func TestSimulatedLocalReadMatchesCalibration(t *testing.T) {
	topo := New(2, Marmot())
	net := topo.Net()
	net.Start(topo.LocalReadPath(0), 64, topo.NodeProfile(0).ReadLatency, "read")
	end := net.Run()
	want := topo.UncontendedLocalRead(64)
	if math.Abs(end-want) > 1e-6 {
		t.Fatalf("simulated read %v, calibrated %v", end, want)
	}
}

func TestRackAssignmentRoundRobin(t *testing.T) {
	topo := NewRacked(8, 3, Marmot())
	if topo.NumRacks() != 3 {
		t.Fatalf("racks = %d, want 3", topo.NumRacks())
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
		net.Start(topo.RemoteReadPath(0, dst), 64, topo.NodeProfile(0).ReadLatency, "r")
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
