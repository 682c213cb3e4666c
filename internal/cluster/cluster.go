// Package cluster models the physical test cluster: a set of nodes, each
// with a disk and a full-duplex NIC, attached to one non-blocking switch
// (the topology of the PRObE Marmot testbed the Opass paper evaluates on).
//
// The package maps every node onto three simnet resources — disk, NIC
// transmit, NIC receive — and exposes the resource paths that a local or a
// remote chunk read traverses. It also carries the calibrated hardware
// profile that converts the simulator's fluid-flow arithmetic into seconds
// comparable to the paper's measurements.
package cluster

import (
	"fmt"

	"opass/internal/simnet"
)

// Profile is the per-node hardware calibration.
type Profile struct {
	// DiskMBps is the sequential read bandwidth of the node's disk.
	DiskMBps float64
	// DiskSeekPenalty is the concurrency degradation factor alpha: with k
	// concurrent streams the disk's aggregate bandwidth is
	// DiskMBps/(1+alpha*(k-1)).
	DiskSeekPenalty float64
	// NICMBps is the bandwidth of each NIC direction (full duplex).
	NICMBps float64
	// ReadLatency is the fixed per-request startup cost in seconds
	// (open + seek + RPC round trip).
	ReadLatency float64
}

// Marmot returns the profile calibrated against the paper's testbed: 2 TB
// SATA disks (~75 MB/s sequential reads), Gigabit Ethernet (~117 MB/s per
// direction), and a startup latency that puts an uncontended local 64 MB
// chunk read at roughly 0.87 s — matching the ~0.9 s the paper reports with
// Opass enabled. The seek penalty is set so that contended remote chunk
// reads average a bit over 2 s with a worst case near 12 s, the figures the
// paper quotes in §V-C2.
func Marmot() Profile {
	return Profile{
		DiskMBps:        75,
		DiskSeekPenalty: 0.3,
		NICMBps:         117,
		ReadLatency:     0.015,
	}
}

// Topology is a cluster of nodes on a single switch, wired into a
// simnet.Network. Nodes may be homogeneous (New) or carry per-node
// hardware profiles (NewHeterogeneousRacked) for the §IV-D heterogeneous
// environment experiments. Racks>1 assigns nodes to racks round-robin for
// rack-aware placement experiments; the switch itself stays non-blocking,
// as on Marmot.
type Topology struct {
	n        int
	racks    int
	profiles []Profile
	net      *simnet.Network
	disk     []simnet.ResourceID
	tx       []simnet.ResourceID
	rx       []simnet.ResourceID

	// Oversubscribed rack uplinks (nil when the fabric is non-blocking, as
	// on Marmot): cross-rack reads traverse the source rack's uplink-out
	// and the destination rack's uplink-in.
	uplinkOut []simnet.ResourceID
	uplinkIn  []simnet.ResourceID
}

// New builds a Topology of n identical nodes with profile p and one rack.
func New(n int, p Profile) *Topology {
	return NewRacked(n, 1, p)
}

// NewRacked builds a Topology of n identical nodes spread round-robin
// across racks.
func NewRacked(n, racks int, p Profile) *Topology {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: node count %d must be positive", n))
	}
	profiles := make([]Profile, n)
	for i := range profiles {
		profiles[i] = p
	}
	return NewHeterogeneousRacked(profiles, racks)
}

// NewHeterogeneousRacked builds a heterogeneous Topology across racks.
func NewHeterogeneousRacked(profiles []Profile, racks int) *Topology {
	n := len(profiles)
	if n == 0 {
		panic("cluster: no node profiles")
	}
	if racks <= 0 {
		panic(fmt.Sprintf("cluster: rack count %d must be positive", racks))
	}
	t := &Topology{
		n:        n,
		racks:    racks,
		profiles: append([]Profile(nil), profiles...),
		net:      simnet.New(),
		disk:     make([]simnet.ResourceID, n),
		tx:       make([]simnet.ResourceID, n),
		rx:       make([]simnet.ResourceID, n),
	}
	for i, p := range t.profiles {
		if p.DiskMBps <= 0 || p.NICMBps <= 0 || p.ReadLatency < 0 || p.DiskSeekPenalty < 0 {
			panic(fmt.Sprintf("cluster: invalid profile for node %d: %+v", i, p))
		}
		t.disk[i] = t.net.AddResource(fmt.Sprintf("node%d/disk", i), p.DiskMBps, p.DiskSeekPenalty)
		t.tx[i] = t.net.AddResource(fmt.Sprintf("node%d/tx", i), p.NICMBps, 0)
		t.rx[i] = t.net.AddResource(fmt.Sprintf("node%d/rx", i), p.NICMBps, 0)
	}
	return t
}

// Net exposes the underlying fluid-flow network.
func (t *Topology) Net() *simnet.Network { return t.net }

// NodeProfile returns the hardware profile of a specific node.
func (t *Topology) NodeProfile(node int) Profile {
	t.check(node)
	return t.profiles[node]
}

// ReadLatency is the fixed startup cost of a read served by node src
// (dominated by the source disk's seek and the RPC round trip).
func (t *Topology) ReadLatency(src int) float64 {
	t.check(src)
	return t.profiles[src].ReadLatency
}

// NumNodes reports the cluster size.
func (t *Topology) NumNodes() int { return t.n }

// RackOf reports the rack a node belongs to (round-robin assignment).
func (t *Topology) RackOf(node int) int {
	t.check(node)
	return node % t.racks
}

// NumRacks reports the rack count.
func (t *Topology) NumRacks() int { return t.racks }

func (t *Topology) check(node int) {
	if node < 0 || node >= t.n {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", node, t.n))
	}
}

// LocalReadPath is the resource path of a read served from the reader's own
// disk: only that disk is used — no network traversal. The result is a
// read-only, capacity-capped view of the topology's own disk table (nothing
// is allocated; Network.Start copies the path it is given).
func (t *Topology) LocalReadPath(node int) []simnet.ResourceID {
	t.check(node)
	return t.disk[node : node+1 : node+1]
}

// RackNodes returns the members of rack r, node-ascending.
func (t *Topology) RackNodes(r int) []int {
	if r < 0 || r >= t.racks {
		panic(fmt.Sprintf("cluster: rack %d out of range [0,%d)", r, t.racks))
	}
	var nodes []int
	for i := 0; i < t.n; i++ {
		if t.RackOf(i) == r {
			nodes = append(nodes, i)
		}
	}
	return nodes
}

// SetPerRackUplinks installs oversubscribed rack uplinks with an individual
// bandwidth per rack (one value per rack, both directions): every cross-rack
// read additionally traverses the source rack's outbound uplink and the
// destination rack's inbound uplink, so racks contend for their shared links
// to the core switch. Call before running traffic; it panics when the
// topology has a single rack or any bandwidth is non-positive.
func (t *Topology) SetPerRackUplinks(uplinkMBps []float64) {
	if t.racks <= 1 {
		panic("cluster: rack uplinks need at least two racks")
	}
	if len(uplinkMBps) != t.racks {
		panic(fmt.Sprintf("cluster: %d uplink bandwidths for %d racks", len(uplinkMBps), t.racks))
	}
	t.uplinkOut = make([]simnet.ResourceID, t.racks)
	t.uplinkIn = make([]simnet.ResourceID, t.racks)
	for r := 0; r < t.racks; r++ {
		bw := uplinkMBps[r]
		if bw <= 0 {
			panic(fmt.Sprintf("cluster: rack %d uplink bandwidth %v must be positive", r, bw))
		}
		t.uplinkOut[r] = t.net.AddResource(fmt.Sprintf("rack%d/uplink-out", r), bw, 0)
		t.uplinkIn[r] = t.net.AddResource(fmt.Sprintf("rack%d/uplink-in", r), bw, 0)
	}
}

// SetRackOversubscription installs uplinks sized at each rack's aggregate
// NIC bandwidth divided by ratio: ratio 1 gives a non-blocking fabric (the
// uplink exactly matches what the rack's nodes can push), ratio 4 the
// classic 4:1 oversubscribed core. Every rack is sized from its actual
// member list — uneven racks (nodes % racks != 0) get proportionally
// different uplinks.
func (t *Topology) SetRackOversubscription(ratio float64) {
	if ratio <= 0 {
		panic(fmt.Sprintf("cluster: oversubscription ratio %v must be positive", ratio))
	}
	per := make([]float64, t.racks)
	for i := 0; i < t.n; i++ {
		per[t.RackOf(i)] += t.profiles[i].NICMBps
	}
	for r := range per {
		per[r] /= ratio
	}
	t.SetPerRackUplinks(per)
}

// RemoteReadPath is the resource path of a read served by src on behalf of a
// process running on dst: the source disk, the source NIC transmit
// direction, and the destination NIC receive direction. With rack uplinks
// configured, cross-rack reads also traverse the two rack uplinks; a
// non-blocking core switch itself adds no resource.
func (t *Topology) RemoteReadPath(src, dst int) []simnet.ResourceID {
	t.check(src)
	t.check(dst)
	if src == dst {
		return t.LocalReadPath(src)
	}
	path := []simnet.ResourceID{t.disk[src], t.tx[src]}
	if t.uplinkOut != nil && t.RackOf(src) != t.RackOf(dst) {
		path = append(path, t.uplinkOut[t.RackOf(src)], t.uplinkIn[t.RackOf(dst)])
	}
	return append(path, t.rx[dst])
}

// ReadPath returns the appropriate path for a read served by src for a
// process on dst, local or remote.
func (t *Topology) ReadPath(src, dst int) []simnet.ResourceID {
	if src == dst {
		return t.LocalReadPath(src)
	}
	return t.RemoteReadPath(src, dst)
}

// DegradeNode scales a node's device throughput to the given fractions of
// its healthy capacity: the disk to diskFactor × DiskMBps and both NIC
// directions to nicFactor × NICMBps. Factors must be positive; 1 restores
// full health. The engine's degradation fault injection drives this — rates
// of in-flight transfers adjust from the current virtual instant, modeling
// a sick disk or flapping NIC rather than a crash.
func (t *Topology) DegradeNode(node int, diskFactor, nicFactor float64) {
	t.check(node)
	if diskFactor <= 0 || nicFactor <= 0 {
		panic(fmt.Sprintf("cluster: degrade node %d: factors %v/%v must be positive", node, diskFactor, nicFactor))
	}
	t.net.SetScale(t.disk[node], diskFactor)
	t.net.SetScale(t.tx[node], nicFactor)
	t.net.SetScale(t.rx[node], nicFactor)
}

// DiskResource exposes the disk resource ID of a node (used by tests).
func (t *Topology) DiskResource(node int) simnet.ResourceID {
	t.check(node)
	return t.disk[node]
}

// UncontendedLocalRead returns the time an isolated local read of sizeMB
// takes under this profile — the calibration anchor for the experiments.
func (t *Topology) UncontendedLocalRead(sizeMB float64) float64 {
	return t.profiles[0].ReadLatency + sizeMB/t.profiles[0].DiskMBps
}

// UncontendedRemoteRead returns the time an isolated remote read of sizeMB
// takes: bottlenecked by the slower of disk and NIC.
func (t *Topology) UncontendedRemoteRead(sizeMB float64) float64 {
	bw := t.profiles[0].DiskMBps
	if t.profiles[0].NICMBps < bw {
		bw = t.profiles[0].NICMBps
	}
	return t.profiles[0].ReadLatency + sizeMB/bw
}
