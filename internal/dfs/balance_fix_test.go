package dfs

import (
	"reflect"
	"testing"
)

// TestUtilizationEmptyClusterClampsMin pins the MinMB sentinel bug: with no
// live nodes the -1 loop sentinel used to leak into the report.
func TestUtilizationEmptyClusterClampsMin(t *testing.T) {
	fs := newFS(2, 1)
	for n := 0; n < 2; n++ {
		if err := fs.MarkDead(n); err != nil {
			t.Fatal(err)
		}
	}
	rep := fs.Utilization(0.1)
	if rep.MinMB != 0 {
		t.Fatalf("MinMB = %v, want 0 (internal sentinel leaked)", rep.MinMB)
	}
	if rep.MaxMB != 0 || rep.MeanMB != 0 || rep.Overloaded != nil || rep.Underloaded != nil {
		t.Fatalf("empty-cluster report = %+v, want zeros", rep)
	}
}

// TestBalanceOvershootConverges pins the moveOneReplica overshoot bug: one
// 100 MB chunk plus small change on the donor used to ping-pong the big
// chunk between donor and recipient until the iteration cap, because the
// pick was always the single largest movable chunk regardless of how far
// above the mean the donor actually sat.
func TestBalanceOvershootConverges(t *testing.T) {
	// Replication 1 so every chunk has exactly one movable copy.
	// Node 0: 100 + 5x4 = 120 MB. Nodes 1-3: 40 MB each. Mean 60,
	// threshold 0.1 -> bounds [54, 66].
	fs := New(testView(4), Config{Replication: 1})
	if _, err := fs.CreateChunksReplicated("/big", []float64{100, 4, 4, 4, 4, 4},
		[][]int{{0}, {0}, {0}, {0}, {0}, {0}}); err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"/n1", "/n2", "/n3"} {
		if _, err := fs.CreateChunksReplicated(n, []float64{40}, [][]int{{i + 1}}); err != nil {
			t.Fatalf("create %s (%d): %v", n, i, err)
		}
	}
	bigID := ChunkID(0)

	moved := fs.Balance(0.1)
	// Only the five 4 MB chunks fit the donor's 60 MB overage; the 100 MB
	// chunk must never move (it would swing node 0 from overloaded to
	// underloaded and oscillate). The old code burned the full iteration
	// cap (10*chunks+10 = 100 moves) bouncing it.
	if moved > 5 {
		t.Fatalf("moved = %d replicas, want <= 5 (oscillation)", moved)
	}
	if !fs.Chunk(bigID).HostedOn(0) {
		t.Fatalf("the 100 MB chunk left the donor: replicas %v", fs.Chunk(bigID).Replicas)
	}
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck after balance: %v", problems)
	}
	// The pass strictly improved the spread and never made any node worse
	// than the initial maximum.
	rep := fs.Utilization(0.1)
	if rep.MaxMB >= 120 {
		t.Fatalf("max load %v did not improve from 120", rep.MaxMB)
	}
	if rep.MaxMB-rep.MinMB >= 120-40 {
		t.Fatalf("spread %v did not shrink from 80", rep.MaxMB-rep.MinMB)
	}
	if got := fs.TotalStoredMB(); got != 240 {
		t.Fatalf("total stored changed: %v, want 240", got)
	}
}

// TestBalanceStillConvergesOnUniformChunks guards the common case: with
// movable chunks well under the overage the balancer behaves as before and
// reaches the threshold band.
func TestBalanceStillConvergesOnUniformChunks(t *testing.T) {
	rows := make([][]int, 12)
	for i := range rows {
		rows[i] = []int{0} // all twelve 10 MB chunks start on node 0
	}
	fs := New(testView(4), Config{Replication: 1})
	sizes := make([]float64, 12)
	for i := range sizes {
		sizes[i] = 10
	}
	if _, err := fs.CreateChunksReplicated("/skew", sizes, rows); err != nil {
		t.Fatal(err)
	}
	fs.Balance(0.1)
	rep := fs.Utilization(0.1)
	if len(rep.Overloaded) != 0 || len(rep.Underloaded) != 0 {
		t.Fatalf("unbalanced after pass: %+v", rep)
	}
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck: %v", problems)
	}
}

// TestMoveReplicaRollbackRestoresState pins the MoveReplica failure path: a
// forced remove failure (the claimed source never hosted the chunk, the
// same state a source dying between the add and the remove leaves behind)
// must roll back the added copy, restore the replication target, and leave
// the replica list sorted.
func TestMoveReplicaRollbackRestoresState(t *testing.T) {
	fs := New(testView(5), Config{Replication: 3})
	f, err := fs.CreateChunksReplicated("/a", []float64{64}, [][]int{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	id := f.Chunks[0]
	// Declare a target above the replica count so the restore is
	// observable: the rollback's RemoveReplica lowers the target to the
	// replica count, and only the explicit restore puts it back to 4.
	if err := fs.SetReplicationTarget(id, 4); err != nil {
		t.Fatal(err)
	}

	if err := fs.MoveReplica(id, 4, 3); err == nil {
		t.Fatal("move from a non-holder succeeded")
	}
	c := fs.Chunk(id)
	if got, want := c.Replicas, []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replicas after rollback = %v, want %v", got, want)
	}
	if got := c.ReplicationTarget(); got != 4 {
		t.Fatalf("target after rollback = %d, want 4 restored", got)
	}
	if got := fs.HostedBy(3); len(got) != 0 {
		t.Fatalf("rolled-back destination still indexes %v", got)
	}
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck after rollback: %v", problems)
	}

	// The success path preserves a sticky target too (a move is not a
	// setrep, even though it is built from an add and a remove).
	if err := fs.MoveReplica(id, 0, 3); err != nil {
		t.Fatal(err)
	}
	c = fs.Chunk(id)
	if got, want := c.Replicas, []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replicas after move = %v, want %v", got, want)
	}
	if got := c.ReplicationTarget(); got != 4 {
		t.Fatalf("target after successful move = %d, want 4 preserved", got)
	}
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck after move: %v", problems)
	}
}
