package dfs

import (
	"errors"
	"math/rand"
	"testing"
)

func TestCreateChunksReplicated(t *testing.T) {
	fs := New(testView(6), Config{Seed: 1})
	before := fs.Epoch()
	f, err := fs.CreateChunksReplicated("/bulk", []float64{64, 32, 16}, [][]int{
		{3, 1},    // unsorted on purpose
		{5},       // single replica despite default replication 3
		{0, 2, 4}, // triple
	})
	if err != nil {
		t.Fatalf("CreateChunksReplicated: %v", err)
	}
	if got := fs.Epoch(); got != before+1 {
		t.Fatalf("epoch bumped %d times, want exactly 1", got-before)
	}
	if f.SizeMB != 112 {
		t.Fatalf("file size %v, want 112", f.SizeMB)
	}
	wantReplicas := [][]int{{1, 3}, {5}, {0, 2, 4}}
	for i, id := range f.Chunks {
		c := fs.Chunk(id)
		if c == nil {
			t.Fatalf("chunk %d missing", i)
		}
		if len(c.Replicas) != len(wantReplicas[i]) {
			t.Fatalf("chunk %d has %d replicas, want %d", i, len(c.Replicas), len(wantReplicas[i]))
		}
		for j, node := range wantReplicas[i] {
			if c.Replicas[j] != node {
				t.Fatalf("chunk %d replicas %v, want sorted %v", i, c.Replicas, wantReplicas[i])
			}
		}
		if c.Epoch() != fs.Epoch() {
			t.Fatalf("chunk %d epoch %d, want %d", i, c.Epoch(), fs.Epoch())
		}
	}
	// perNode indexes must agree with the replica lists.
	for _, node := range []int{1, 3} {
		found := false
		for _, id := range fs.HostedBy(node) {
			if id == f.Chunks[0] {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d does not host chunk 0", node)
		}
	}
	if msgs := fs.Fsck(); len(msgs) != 0 {
		t.Fatalf("fsck after bulk create: %v", msgs)
	}
}

func TestCreateChunksReplicatedValidation(t *testing.T) {
	cases := []struct {
		name     string
		sizes    []float64
		replicas [][]int
	}{
		{"no chunks", nil, nil},
		{"length mismatch", []float64{1, 2}, [][]int{{0}}},
		{"zero size", []float64{0}, [][]int{{0}}},
		{"negative size", []float64{-1}, [][]int{{0}}},
		{"empty replica list", []float64{1}, [][]int{{}}},
		{"node out of range", []float64{1}, [][]int{{9}}},
		{"negative node", []float64{1}, [][]int{{-1}}},
		{"duplicate replica", []float64{1}, [][]int{{2, 2}}},
	}
	for _, tc := range cases {
		fs := New(testView(4), Config{Seed: 2})
		if _, err := fs.CreateChunksReplicated("/f", tc.sizes, tc.replicas); err == nil {
			t.Errorf("%s: create succeeded, want error", tc.name)
		}
		// Nothing may have been written: namespace empty, no chunks, epoch 0.
		if fs.NumChunks() != 0 || len(fs.Files()) != 0 || fs.Epoch() != 0 {
			t.Errorf("%s: failed create left state behind (chunks=%d files=%d epoch=%d)",
				tc.name, fs.NumChunks(), len(fs.Files()), fs.Epoch())
		}
	}
}

func TestCreateChunksReplicatedDeadNodeAndDupName(t *testing.T) {
	fs := New(testView(4), Config{Seed: 3, Replication: 1})
	if err := fs.MarkDead(2); err != nil {
		t.Fatalf("MarkDead: %v", err)
	}
	if _, err := fs.CreateChunksReplicated("/f", []float64{1}, [][]int{{2}}); err == nil {
		t.Fatal("create on dead node succeeded, want error")
	}
	if _, err := fs.CreateChunksReplicated("/f", []float64{1}, [][]int{{1}}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := fs.CreateChunksReplicated("/f", []float64{1}, [][]int{{1}}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate name error = %v, want ErrExists", err)
	}
}

func TestSnapshot(t *testing.T) {
	fs := New(testView(8), Config{Seed: 4})
	if e, files, chunks, nodes := fs.Epoch(), len(fs.Files()), fs.NumChunks(), fs.View().NumNodes(); e != 0 || files != 0 || chunks != 0 || nodes != 8 {
		t.Fatalf("empty store: epoch %d, %d files, %d chunks, %d nodes", e, files, chunks, nodes)
	}
	if _, err := fs.CreateChunks("/a", []float64{64, 64}); err != nil {
		t.Fatalf("CreateChunks: %v", err)
	}
	e1 := fs.Epoch()
	if files, chunks := len(fs.Files()), fs.NumChunks(); e1 == 0 || files != 1 || chunks != 2 {
		t.Fatalf("after create: epoch %d, %d files, %d chunks", e1, files, chunks)
	}
	// Replica mutations move the epoch even when counts are unchanged.
	c := fs.Chunk(mustStat(t, fs, "/a").Chunks[0])
	var target int
	for n := 0; n < 8; n++ {
		hosted := false
		for _, r := range c.Replicas {
			if r == n {
				hosted = true
			}
		}
		if !hosted {
			target = n
			break
		}
	}
	if err := fs.AddReplica(c.ID, target); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if e2, chunks := fs.Epoch(), fs.NumChunks(); e2 <= e1 || chunks != 2 {
		t.Fatalf("after AddReplica: epoch %d (was %d), %d chunks", e2, e1, chunks)
	}
}

// mustStat is Stat with the error turned into a test failure.
func mustStat(t *testing.T, fs *FileSystem, name string) *File {
	t.Helper()
	f, err := fs.Stat(name)
	if err != nil {
		t.Fatalf("Stat(%q): %v", name, err)
	}
	return f
}

// badRowPlacement places chunk 0 like RandomPlacement and returns a fixed,
// invalid row for every later chunk.
type badRowPlacement struct{ row []int }

func (p badRowPlacement) Place(rng *rand.Rand, v ClusterView, live []int, r int, c *Chunk) []int {
	if c.Index == 0 {
		return RandomPlacement{}.Place(rng, v, live, r, c)
	}
	return p.row
}

// TestFailedCreateLeavesNothingBehind is the orphan-chunk regression: a
// create that fails on its second chunk used to keep the first one in the
// chunk table and the per-node index, with no file, no epoch bump and an
// fsck error.
func TestFailedCreateLeavesNothingBehind(t *testing.T) {
	viaPolicy := func(fs *FileSystem) error {
		_, err := fs.CreateChunks("/x", []float64{64, 64})
		return err
	}
	cases := []struct {
		name      string
		placement Placement // nil: the default; otherwise the failure is the policy's row
		create    func(fs *FileSystem) error
	}{
		{"CreateChunks bad size", nil, func(fs *FileSystem) error {
			_, err := fs.CreateChunks("/x", []float64{64, 0})
			return err
		}},
		{"CreateChunksReplicated bad second row", nil, func(fs *FileSystem) error {
			_, err := fs.CreateChunksReplicated("/x", []float64{64, 64}, [][]int{{0, 1}, {2, 7}})
			return err
		}},
		{"policy row on a dead node", badRowPlacement{[]int{0, 1, 7}}, viaPolicy},
		{"policy row with a duplicate", badRowPlacement{[]int{0, 1, 1}}, viaPolicy},
		{"policy row too short", badRowPlacement{[]int{0, 1}}, viaPolicy},
	}
	for _, tc := range cases {
		build := func() *FileSystem {
			fs := New(testView(8), Config{Seed: 9, Placement: tc.placement})
			if err := fs.MarkDead(7); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.CreateChunksReplicated("/kept", []float64{64, 32}, [][]int{{0, 1, 2}, {3, 4, 5}}); err != nil {
				t.Fatal(err)
			}
			return fs
		}
		fs, twin := build(), build()
		if err := tc.create(fs); err == nil {
			t.Errorf("%s: create succeeded, want error", tc.name)
			continue
		}
		if fs.NumChunks() != twin.NumChunks() || fs.TotalStoredMB() != twin.TotalStoredMB() ||
			fs.Epoch() != twin.Epoch() || len(fs.Files()) != len(twin.Files()) {
			t.Errorf("%s: failed create left state behind: chunks %d stored %v MB epoch %d files %v, want %d, %v, %d, %v",
				tc.name, fs.NumChunks(), fs.TotalStoredMB(), fs.Epoch(), fs.Files(),
				twin.NumChunks(), twin.TotalStoredMB(), twin.Epoch(), twin.Files())
		}
		if problems := fs.Fsck(); len(problems) != 0 {
			t.Errorf("%s: fsck after failed create: %v", tc.name, problems)
		}
		// A create the file system can reject on its own draws no placement
		// randomness, so later files land where they would have anyway.
		if tc.placement == nil && fs.rng.Int63() != twin.rng.Int63() {
			t.Errorf("%s: failed create drew from the placement RNG", tc.name)
		}
	}
}
