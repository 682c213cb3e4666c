package dfs

import (
	"testing"
)

// bumped runs op and asserts whether the placement epoch advanced. It also
// asserts monotonicity: the epoch may never move backwards.
func bumped(t *testing.T, fs *FileSystem, name string, want bool, op func() error) {
	t.Helper()
	before := fs.Epoch()
	err := op()
	after := fs.Epoch()
	if after < before {
		t.Fatalf("%s: epoch went backwards (%d -> %d)", name, before, after)
	}
	if want && after == before {
		t.Errorf("%s: epoch not bumped (still %d, op err: %v)", name, before, err)
	}
	if !want && after != before {
		t.Errorf("%s: epoch bumped %d -> %d, want unchanged (op err: %v)", name, before, after, err)
	}
}

// TestEpochBumpsOnEveryPlacementMutation walks every mutating entry point of
// the namenode and asserts it advances the epoch — the change signal the
// engine's delta replan relies on. Failed operations and reads must leave it
// untouched.
func TestEpochBumpsOnEveryPlacementMutation(t *testing.T) {
	fs := New(testView(8), Config{Seed: 41})
	if fs.Epoch() != 0 {
		t.Fatalf("fresh file system epoch = %d, want 0", fs.Epoch())
	}

	// Writes: Create (via CreateChunks).
	bumped(t, fs, "Create", true, func() error {
		_, err := fs.Create("/a", 128)
		return err
	})
	bumped(t, fs, "CreateChunks", true, func() error {
		_, err := fs.CreateChunks("/b", []float64{64, 64})
		return err
	})

	// Replica surgery.
	a, err := fs.Stat("/a")
	if err != nil {
		t.Fatal(err)
	}
	c := fs.Chunk(a.Chunks[0])
	free := -1
	for n := 0; n < 8; n++ {
		if !c.HostedOn(n) {
			free = n
			break
		}
	}
	bumped(t, fs, "AddReplica", true, func() error { return fs.AddReplica(c.ID, free) })
	bumped(t, fs, "RemoveReplica", true, func() error { return fs.RemoveReplica(c.ID, free) })
	bumped(t, fs, "MoveReplica", true, func() error {
		return fs.MoveReplica(c.ID, c.Replicas[0], free)
	})

	// Reads leave it alone.
	bumped(t, fs, "Stat", false, func() error {
		_, err := fs.Stat("/a")
		return err
	})

	// Node membership: crash, re-add, pre-declare dead.
	bumped(t, fs, "Crash", true, func() error {
		_, _, err := fs.Crash(7)
		return err
	})
	bumped(t, fs, "AddNode", true, func() error { return fs.AddNode(7) })
	bumped(t, fs, "MarkDead", true, func() error { return fs.MarkDead(7) })

	// Failed mutations leave the epoch alone.
	bumped(t, fs, "Create(existing)", false, func() error {
		_, err := fs.Create("/a", 64)
		if err == nil {
			t.Fatal("duplicate create succeeded")
		}
		return nil
	})
	bumped(t, fs, "AddReplica(duplicate)", false, func() error {
		if err := fs.AddReplica(c.ID, c.Replicas[0]); err == nil {
			t.Fatal("duplicate add succeeded")
		}
		return nil
	})
	bumped(t, fs, "AddNode(live)", false, func() error {
		if err := fs.AddNode(0); err == nil {
			t.Fatal("adding a live node succeeded")
		}
		return nil
	})

	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck after epoch walk: %v", problems)
	}
}

// TestEpochBumpsOnBalancerMoves asserts the balancer advances the epoch when
// (and only when) it moves replicas.
func TestEpochBumpsOnBalancerMoves(t *testing.T) {
	fs := New(testView(8), Config{Seed: 42, Placement: ClusteredPlacement{}})
	if _, err := fs.Create("/skewed", 1024); err != nil {
		t.Fatal(err)
	}
	before := fs.Epoch()
	moved := fs.Balance(0.1)
	if moved == 0 {
		t.Fatal("clustered layout balanced nothing; fixture broken")
	}
	if fs.Epoch() == before {
		t.Fatalf("balancer moved %d replicas without bumping the epoch", moved)
	}
	// The first pass ran to convergence (or no legal move), so a second
	// pass moves nothing and must not bump.
	before = fs.Epoch()
	if again := fs.Balance(0.1); again != 0 {
		t.Fatalf("second balance pass moved %d replicas; expected convergence", again)
	}
	if fs.Epoch() != before {
		t.Fatalf("no-op balance bumped epoch %d -> %d", before, fs.Epoch())
	}
}

// TestLiveNodesNonContiguous pins the shape redistribution's donor seeding
// depends on: after a removal the live IDs have a hole, and LiveNodes is the
// only correct way to enumerate them.
func TestLiveNodesNonContiguous(t *testing.T) {
	fs := New(testView(5), Config{Seed: 43})
	if err := fs.MarkDead(1); err != nil {
		t.Fatal(err)
	}
	got := fs.LiveNodes()
	want := []int{0, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("LiveNodes() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LiveNodes() = %v, want %v", got, want)
		}
	}
}
