package dfs

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// view is a minimal ClusterView for tests.
type view struct {
	nodes, racks int
}

func (v view) NumNodes() int    { return v.nodes }
func (v view) RackOf(n int) int { return n % v.racks }
func testView(n int) view       { return view{nodes: n, racks: 1} }
func rackedView(n, r int) view  { return view{nodes: n, racks: r} }
func newFS(n int, seed int64) *FileSystem {
	return New(testView(n), Config{Seed: seed})
}

func TestCreateSplitsIntoChunks(t *testing.T) {
	fs := newFS(8, 1)
	f, err := fs.Create("/data/a", 200) // 64+64+64+8
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Chunks) != 4 {
		t.Fatalf("chunks = %d, want 4", len(f.Chunks))
	}
	if f.SizeMB != 200 {
		t.Fatalf("size = %v, want 200", f.SizeMB)
	}
	last := fs.Chunk(f.Chunks[3])
	if last.SizeMB != 8 {
		t.Fatalf("final chunk = %v MB, want 8", last.SizeMB)
	}
}

func TestCreateRejectsDuplicatesAndBadSizes(t *testing.T) {
	fs := newFS(8, 1)
	if _, err := fs.Create("/a", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/a", 64); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create error = %v, want ErrExists", err)
	}
	if _, err := fs.Create("/b", 0); err == nil {
		t.Fatal("zero-size create should fail")
	}
	if _, err := fs.CreateChunks("/c", nil); err == nil {
		t.Fatal("empty chunk list should fail")
	}
	if _, err := fs.CreateChunks("/d", []float64{64, -1}); err == nil {
		t.Fatal("negative chunk size should fail")
	}
}

func TestReplicasDistinctAndCounted(t *testing.T) {
	fs := newFS(16, 2)
	f, err := fs.Create("/a", 64*50)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range f.Chunks {
		c := fs.Chunk(id)
		if len(c.Replicas) != 3 {
			t.Fatalf("chunk %d has %d replicas, want 3", id, len(c.Replicas))
		}
		seen := map[int]bool{}
		for _, r := range c.Replicas {
			if seen[r] {
				t.Fatalf("chunk %d has duplicate replica on node %d", id, r)
			}
			seen[r] = true
			if r < 0 || r >= 16 {
				t.Fatalf("chunk %d replica on bad node %d", id, r)
			}
		}
	}
}

func TestReplicationExceedingClusterFails(t *testing.T) {
	fs := New(testView(2), Config{Replication: 3})
	if _, err := fs.Create("/a", 64); err == nil {
		t.Fatal("want error when replication > live nodes")
	}
}

func TestBlockLocationsMatchChunks(t *testing.T) {
	fs := newFS(8, 3)
	f, _ := fs.Create("/a", 64*5)
	locs, err := fs.BlockLocations("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != len(f.Chunks) {
		t.Fatalf("locations = %d, want %d", len(locs), len(f.Chunks))
	}
	for i, loc := range locs {
		c := fs.Chunk(f.Chunks[i])
		if loc.Chunk != c.ID || loc.SizeMB != c.SizeMB {
			t.Fatalf("location %d mismatch: %+v vs chunk %+v", i, loc, c)
		}
	}
	if _, err := fs.BlockLocations("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file error = %v, want ErrNotFound", err)
	}
}

func TestHostedByIndexConsistent(t *testing.T) {
	fs := newFS(10, 4)
	fs.Create("/a", 64*30)
	count := 0
	for n := 0; n < 10; n++ {
		for _, id := range fs.HostedBy(n) {
			if !fs.Chunk(id).HostedOn(n) {
				t.Fatalf("index says node %d hosts chunk %d but replica list disagrees", n, id)
			}
			count++
		}
	}
	if count != 30*3 {
		t.Fatalf("total hosted replicas = %d, want 90", count)
	}
}

func TestPickReplicaPrefersLocal(t *testing.T) {
	fs := newFS(8, 5)
	f, _ := fs.Create("/a", 64)
	c := fs.Chunk(f.Chunks[0])
	reader := c.Replicas[1]
	node, local, _ := fs.PickReplicaAvoiding(c.ID, reader, 0, nil)
	if !local || node != reader {
		t.Fatalf("PickReplicaAvoiding(%d, co-located %d) = (%d,%v), want local", c.ID, reader, node, local)
	}
}

func TestPickReplicaRemoteIsAReplica(t *testing.T) {
	fs := newFS(8, 6)
	f, _ := fs.Create("/a", 64)
	c := fs.Chunk(f.Chunks[0])
	reader := -1
	for n := 0; n < 8; n++ {
		if !c.HostedOn(n) {
			reader = n
			break
		}
	}
	for i := 0; i < 20; i++ {
		node, local, _ := fs.PickReplicaAvoiding(c.ID, reader, 0, nil)
		if local {
			t.Fatalf("read from non-replica node %d reported local", reader)
		}
		if !c.HostedOn(node) {
			t.Fatalf("remote pick %d is not a replica holder", node)
		}
	}
}

func TestRandomPlacementSpreadsLoad(t *testing.T) {
	// With 512 chunks on 64 nodes the expected replicas per node is 24;
	// random placement should put at least one chunk almost everywhere.
	fs := newFS(64, 7)
	fs.Create("/big", 64*512)
	empty := 0
	for n := 0; n < 64; n++ {
		if len(fs.HostedBy(n)) == 0 {
			empty++
		}
	}
	if empty > 1 {
		t.Fatalf("%d of 64 nodes empty after 512*3 random replicas", empty)
	}
}

func TestRackAwarePlacement(t *testing.T) {
	v := rackedView(12, 3)
	fs := New(v, Config{Seed: 8, Placement: RackAwarePlacement{Writer: -1}})
	f, err := fs.Create("/a", 64*30)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range f.Chunks {
		c := fs.Chunk(id)
		racks := map[int]bool{}
		for _, r := range c.Replicas {
			racks[v.RackOf(r)] = true
		}
		if len(racks) < 2 {
			t.Fatalf("chunk %d: all replicas in one rack: %v", id, c.Replicas)
		}
	}
}

func TestClusteredPlacementPiles(t *testing.T) {
	fs := New(testView(8), Config{Seed: 9, Placement: ClusteredPlacement{}})
	fs.Create("/a", 64*10)
	for n := 0; n < 3; n++ {
		if len(fs.HostedBy(n)) != 10 {
			t.Fatalf("node %d hosts %d chunks, want 10", n, len(fs.HostedBy(n)))
		}
	}
	for n := 3; n < 8; n++ {
		if len(fs.HostedBy(n)) != 0 {
			t.Fatalf("node %d hosts %d chunks, want 0", n, len(fs.HostedBy(n)))
		}
	}
}

func TestRoundRobinPlacementEven(t *testing.T) {
	fs := New(testView(8), Config{Seed: 10, Placement: RoundRobinPlacement{}})
	fs.Create("/a", 64*8) // 8 chunks * 3 replicas over 8 nodes = 3 each
	for n := 0; n < 8; n++ {
		if got := len(fs.HostedBy(n)); got != 3 {
			t.Fatalf("node %d hosts %d, want 3", n, got)
		}
	}
}

func TestAddNodeAndSkew(t *testing.T) {
	fs := newFS(8, 12)
	// Nodes 6,7 join late: mark dead before writing.
	if err := fs.MarkDead(6); err != nil {
		t.Fatal(err)
	}
	if err := fs.MarkDead(7); err != nil {
		t.Fatal(err)
	}
	fs.Create("/a", 64*40)
	if len(fs.HostedBy(6))+len(fs.HostedBy(7)) != 0 {
		t.Fatal("dead nodes must not receive replicas")
	}
	if err := fs.AddNode(6); err != nil {
		t.Fatal(err)
	}
	if err := fs.AddNode(7); err != nil {
		t.Fatal(err)
	}
	rep := fs.Utilization(0.1)
	if len(rep.Underloaded) < 2 {
		t.Fatalf("expected late-joining nodes to be underloaded: %+v", rep)
	}
	// MarkDead on a populated node must fail.
	if err := fs.MarkDead(0); err == nil {
		t.Fatal("MarkDead on populated node should fail")
	}
}

func TestBalanceEvensOutSkew(t *testing.T) {
	fs := newFS(8, 13)
	fs.MarkDead(6)
	fs.MarkDead(7)
	fs.Create("/a", 64*48)
	fs.AddNode(6)
	fs.AddNode(7)
	before := fs.Utilization(0.15)
	moved := fs.Balance(0.15)
	after := fs.Utilization(0.15)
	if moved == 0 {
		t.Fatal("balancer moved nothing despite skew")
	}
	if after.MaxMB-after.MinMB >= before.MaxMB-before.MinMB {
		t.Fatalf("balance did not reduce spread: before %v..%v after %v..%v",
			before.MinMB, before.MaxMB, after.MinMB, after.MaxMB)
	}
	// Invariant: replicas still distinct per chunk.
	for i := 0; i < fs.NumChunks(); i++ {
		c := fs.Chunk(ChunkID(i))
		seen := map[int]bool{}
		for _, r := range c.Replicas {
			if seen[r] {
				t.Fatalf("chunk %d duplicated replica after balance", i)
			}
			seen[r] = true
		}
	}
}

// TestPropertyPlacementInvariants fuzzes placements across policies.
func TestPropertyPlacementInvariants(t *testing.T) {
	policies := []Placement{RandomPlacement{}, RackAwarePlacement{Writer: -1}, RoundRobinPlacement{}}
	prop := func(seed int64, rawNodes, rawChunks uint8) bool {
		nodes := 3 + int(rawNodes)%30
		chunks := 1 + int(rawChunks)%50
		for _, pol := range policies {
			fs := New(rackedView(nodes, 1+nodes/4), Config{Seed: seed, Placement: pol})
			sizes := make([]float64, chunks)
			for i := range sizes {
				sizes[i] = 64
			}
			if _, err := fs.CreateChunks("/f", sizes); err != nil {
				t.Errorf("policy %T: %v", pol, err)
				return false
			}
			total := 0
			for n := 0; n < nodes; n++ {
				total += len(fs.HostedBy(n))
			}
			if total != chunks*3 {
				t.Errorf("policy %T: hosted %d, want %d", pol, total, chunks*3)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(30))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPickReplicaDistribution checks the remote pick is roughly
// uniform across the replica holders — the assumption behind the paper's
// §III-B imbalance model (each holder chosen with probability 1/r). The
// pick is deterministic per (chunk, reader), so uniformity is measured
// across many chunk/reader pairs, which is exactly how the model uses it.
func TestPropertyPickReplicaDistribution(t *testing.T) {
	fs := newFS(16, 99)
	f, _ := fs.Create("/a", 64*600)
	counts := [3]int{}
	trials := 0
	for _, id := range f.Chunks {
		c := fs.Chunk(id)
		for reader := 0; reader < 16; reader++ {
			if c.HostedOn(reader) {
				continue
			}
			node, local, _ := fs.PickReplicaAvoiding(id, reader, 0, nil)
			if local {
				t.Fatal("non-co-located read reported local")
			}
			for i, r := range c.Replicas {
				if r == node {
					counts[i]++
				}
			}
			trials++
		}
	}
	for i, n := range counts {
		frac := float64(n) / float64(trials)
		if frac < 0.30 || frac > 0.37 { // 1/3 +- slack over ~7800 picks
			t.Fatalf("replica slot %d picked fraction %v, want ~1/3", i, frac)
		}
	}
}

// TestPickReplicaDeterministic: the same (chunk, reader) pair always picks
// the same serving node, regardless of call order — required for the
// concurrent MPI runtime to stay reproducible.
func TestPickReplicaDeterministic(t *testing.T) {
	fs := newFS(16, 100)
	f, _ := fs.Create("/a", 64*4)
	for _, id := range f.Chunks {
		c := fs.Chunk(id)
		reader := -1
		for n := 0; n < 16; n++ {
			if !c.HostedOn(n) {
				reader = n
				break
			}
		}
		first, _, _ := fs.PickReplicaAvoiding(id, reader, 0, nil)
		for i := 0; i < 5; i++ {
			if got, _, _ := fs.PickReplicaAvoiding(id, reader, 0, nil); got != first {
				t.Fatalf("pick changed across calls: %d vs %d", got, first)
			}
		}
	}
}

func TestDeterministicPlacement(t *testing.T) {
	build := func() []ChunkID {
		fs := newFS(32, 1234)
		fs.Create("/a", 64*100)
		var ids []ChunkID
		for n := 0; n < 32; n++ {
			ids = append(ids, fs.HostedBy(n)...)
		}
		return ids
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("placement not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement diverged at %d", i)
		}
	}
	// Shared RNG does not break determinism across interleaved use.
	_ = rand.New(rand.NewSource(0))
}
