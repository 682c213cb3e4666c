package dfs

import (
	"math/rand"
	"testing"
)

func TestCrashDropsReplicasAndBumpsEpoch(t *testing.T) {
	fs := New(testView(6), Config{Seed: 9, Replication: 3})
	if _, err := fs.Create("/data", 64*8); err != nil {
		t.Fatal(err)
	}
	victim := fs.Chunk(0).Replicas[0]
	hosted := len(fs.HostedBy(victim))
	if hosted == 0 {
		t.Fatal("victim hosts nothing; bad test setup")
	}
	before := fs.Epoch()
	under, lost, err := fs.Crash(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 0 {
		t.Fatalf("single crash with r=3 lost chunks: %v", lost)
	}
	if len(under) != hosted {
		t.Fatalf("under-replicated = %d chunks, want %d (everything the victim hosted)", len(under), hosted)
	}
	if fs.Epoch() == before {
		t.Fatal("crash did not bump the placement epoch")
	}
	for _, id := range under {
		c := fs.Chunk(id)
		if len(c.Replicas) != 2 {
			t.Fatalf("chunk %d has %d replicas, want 2", id, len(c.Replicas))
		}
		if c.HostedOn(victim) {
			t.Fatalf("chunk %d still lists the crashed node", id)
		}
	}
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck after crash: %v", problems)
	}
	// Idempotent on a dead node.
	before = fs.Epoch()
	if under, lost, err := fs.Crash(victim); err != nil || under != nil || lost != nil {
		t.Fatalf("re-crash = (%v,%v,%v), want no-op", under, lost, err)
	}
	if fs.Epoch() != before {
		t.Fatal("no-op re-crash bumped the epoch")
	}
}

func TestCrashReportsLostChunks(t *testing.T) {
	fs := New(testView(6), Config{Seed: 9, Replication: 2, Placement: ClusteredPlacement{}})
	if _, err := fs.Create("/data", 64*4); err != nil {
		t.Fatal(err)
	}
	// ClusteredPlacement packs all replicas onto nodes {0,1}; crashing both
	// loses every chunk.
	if _, lost, err := fs.Crash(0); err != nil || len(lost) != 0 {
		t.Fatalf("first crash: lost=%v err=%v", lost, err)
	}
	_, lost, err := fs.Crash(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != fs.NumChunks() {
		t.Fatalf("lost %d chunks, want all %d", len(lost), fs.NumChunks())
	}
}

func TestReReplicateRestoresFactorAndInvalidatesPlans(t *testing.T) {
	fs := New(testView(6), Config{Seed: 11, Replication: 3})
	if _, err := fs.Create("/data", 64*10); err != nil {
		t.Fatal(err)
	}
	victim := fs.Chunk(0).Replicas[0]
	under, _, err := fs.Crash(victim)
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Epoch()
	repaired := fs.ReReplicate()
	if repaired != len(under) {
		t.Fatalf("repaired %d chunks, want %d", repaired, len(under))
	}
	if fs.Epoch() == before {
		t.Fatal("repair did not bump the placement epoch")
	}
	for i := 0; i < fs.NumChunks(); i++ {
		c := fs.Chunk(ChunkID(i))
		if len(c.Replicas) != 3 {
			t.Fatalf("chunk %d has %d replicas after repair, want 3", i, len(c.Replicas))
		}
		if c.HostedOn(victim) {
			t.Fatalf("repair placed a replica on the dead node for chunk %d", i)
		}
	}
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck after repair: %v", problems)
	}
	// Nothing left to do: a second pass is a no-op and keeps the epoch.
	before = fs.Epoch()
	if again := fs.ReReplicate(); again != 0 {
		t.Fatalf("second repair pass fixed %d chunks, want 0", again)
	}
	if fs.Epoch() != before {
		t.Fatal("no-op repair bumped the epoch")
	}
}

// A layout built with a low Config factor plus explicit AddReplica calls
// (the HTTP API's construction) must repair to the chunk's real redundancy,
// not the config default: replication targets are per-chunk metadata.
func TestReReplicateHonorsPerChunkTarget(t *testing.T) {
	fs := New(testView(6), Config{Seed: 15, Replication: 1})
	f, err := fs.CreateChunksReplicated("/layout", []float64{64, 64}, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 0 gets three replicas, chunk 1 stays at the config factor.
	for _, node := range []int{2, 4} {
		if err := fs.AddReplica(f.Chunks[0], node); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Chunk(f.Chunks[0]).ReplicationTarget(); got != 3 {
		t.Fatalf("target after AddReplica = %d, want 3", got)
	}
	under, lost, err := fs.Crash(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 0 {
		t.Fatalf("lost = %v, want none (chunk 0 had copies on 2 and 4)", lost)
	}
	if len(under) != 1 || under[0] != f.Chunks[0] {
		t.Fatalf("under-replicated = %v, want [%d]", under, f.Chunks[0])
	}
	if repaired := fs.ReReplicate(); repaired != 1 {
		t.Fatalf("repaired %d chunks, want 1", repaired)
	}
	if got := len(fs.Chunk(f.Chunks[0]).Replicas); got != 3 {
		t.Fatalf("chunk 0 has %d replicas after repair, want 3", got)
	}
	// Chunk 1 sits at its own target of 1 and must not be touched.
	if got := len(fs.Chunk(f.Chunks[1]).Replicas); got != 1 {
		t.Fatalf("chunk 1 has %d replicas, want 1", got)
	}
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck: %v", problems)
	}
}

// An explicit RemoveReplica is a setrep: repair must not restore the copy.
// A MoveReplica is not: the target survives the move.
func TestRemoveReplicaLowersTargetMoveKeepsIt(t *testing.T) {
	fs := New(testView(6), Config{Seed: 17, Replication: 3})
	f, err := fs.Create("/data", 64)
	if err != nil {
		t.Fatal(err)
	}
	c := fs.Chunk(f.Chunks[0])
	if err := fs.RemoveReplica(c.ID, c.Replicas[0]); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicationTarget(); got != 2 {
		t.Fatalf("target after RemoveReplica = %d, want 2", got)
	}
	if repaired := fs.ReReplicate(); repaired != 0 {
		t.Fatalf("repair undid an explicit replica removal (%d chunks)", repaired)
	}
	var free int
	for free = 0; c.HostedOn(free); free++ {
	}
	if err := fs.MoveReplica(c.ID, c.Replicas[0], free); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicationTarget(); got != 2 {
		t.Fatalf("target after MoveReplica = %d, want 2", got)
	}
}

func TestReReplicateSkipsLostChunksAndSmallClusters(t *testing.T) {
	// 3 live nodes, r=3: after one crash every chunk is under-replicated but
	// only 2 live nodes remain, so repair can do nothing — and must not loop.
	fs := New(testView(3), Config{Seed: 13, Replication: 3})
	if _, err := fs.Create("/data", 64*2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Crash(0); err != nil {
		t.Fatal(err)
	}
	if repaired := fs.ReReplicate(); repaired != 0 {
		t.Fatalf("repaired %d chunks with no eligible targets, want 0", repaired)
	}
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck: %v", problems)
	}
}

// TestRepairAttachStaysInPlace: createFile gives every per-node index row
// headroom, so re-replicating a crashed node's chunks — the simulate-faults
// repair, 1,280 or 5,120 three-way chunks on 128 nodes — attaches to each
// row in place instead of reallocating it, in a new file system and in one
// Reset after a life of its own.
func TestRepairAttachStaysInPlace(t *testing.T) {
	layout := func(seed int64, chunks int) ([]float64, [][]int) {
		rng := rand.New(rand.NewSource(seed))
		sizes, rows := make([]float64, chunks), make([][]int, chunks)
		for i := range rows {
			sizes[i], rows[i] = 64, rng.Perm(128)[:3]
		}
		return sizes, rows
	}
	for _, chunks := range []int{1280, 5120} {
		for _, reset := range []bool{false, true} {
			fs := New(testView(128), Config{Seed: 1, Replication: 1})
			if reset {
				sizes, rows := layout(99, chunks/2)
				if _, err := fs.CreateChunksReplicated("/before", sizes, rows); err != nil {
					t.Fatal(err)
				}
				if _, _, err := fs.Crash(5); err != nil {
					t.Fatal(err)
				}
				fs.ReReplicate()
				fs.Reset()
			}
			sizes, rows := layout(1, chunks)
			if _, err := fs.CreateChunksReplicated("/layout", sizes, rows); err != nil {
				t.Fatal(err)
			}
			first := make(map[int]*ChunkID)
			for node, row := range fs.perNode {
				first[node] = &row[0]
			}
			if _, _, err := fs.Crash(17); err != nil {
				t.Fatal(err)
			}
			if fs.ReReplicate() == 0 {
				t.Fatal("nothing to repair: not the simulate-faults shape")
			}
			for node, row := range fs.perNode {
				if &row[0] != first[node] {
					t.Errorf("%d chunks, reset %v: node %d's index row was reallocated by the repair (%d entries)", chunks, reset, node, len(row))
				}
			}
		}
	}
}
