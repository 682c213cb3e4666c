package dfs

import (
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
