package dfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFsckCleanOnFreshFS(t *testing.T) {
	fs := newFS(16, 61)
	fs.Create("/a", 64*40)
	fs.Create("/b", 64*7)
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck on fresh fs: %v", problems)
	}
}

// ledgerEntry is what TestPropertyFsckSurvivesMutations remembers of a chunk
// between steps.
type ledgerEntry struct {
	replicas []int
	target   int
	epoch    uint64
}

func snapshotLedger(fs *FileSystem) []ledgerEntry {
	snap := make([]ledgerEntry, len(fs.chunks))
	for i, c := range fs.chunks {
		snap[i] = ledgerEntry{append([]int(nil), c.Replicas...), c.target, c.epoch}
	}
	return snap
}

// TestPropertyFsckSurvivesMutations drives random sequences of every
// placement mutation — including creates and moves that must fail — and
// checks after each step that the namenode is consistent, that no replica
// sits on a dead node, and that a chunk whose replica set or target changed
// got a newer epoch (the direction the delta replan relies on; a rolled-back
// move may bump the epoch without a net change, never the reverse), and that
// a chunk's epoch exceeds the global epoch taken before the step exactly when
// the step re-stamped it. After ReReplicate no repairable chunk may stay
// below its target.
func TestPropertyFsckSurvivesMutations(t *testing.T) {
	prop := func(seed int64) bool {
		return ledgerScript(t, seed, rand.New(rand.NewSource(seed)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}

// ledgerDraws is where a ledger script takes its choices: a seeded generator
// in the property test, the fuzzer's bytes in FuzzLedger.
type ledgerDraws interface {
	Intn(n int) int
	Float64() float64
}

// ledgerScript creates a file on a fresh file system whose placement seed is
// seed, then runs sixteen steps drawn from rng — each one of ten placement
// mutations, a create that must fail or a move that must fail — and checks
// the ledger's invariants after every step. It reports (with t.Errorf)
// whether all of them held.
func ledgerScript(t *testing.T, seed int64, rng ledgerDraws) bool {
	nodes := 8 + rng.Intn(8)
	fs := New(rackedView(nodes, 1+rng.Intn(3)), Config{Seed: seed})
	if _, err := fs.Create("/data", float64(20+rng.Intn(30))*64); err != nil {
		t.Error(err)
		return false
	}
	created := 0
	// liveChunk picks a chunk that still has a replica; ok is false when
	// crashes have left none.
	liveChunk := func() (c *Chunk, ok bool) {
		for try := 0; try < 4*len(fs.chunks); try++ {
			if c := fs.chunks[rng.Intn(len(fs.chunks))]; len(c.Replicas) > 0 {
				return c, true
			}
		}
		return nil, false
	}
	for step := 0; step < 16; step++ {
		before, epochBefore := snapshotLedger(fs), fs.Epoch()
		mustFail, repaired := false, false
		var err error
		op := rng.Intn(12)
		c, ok := liveChunk()
		if !ok {
			op = 7 // nothing left to mutate: write a new file
		}
		switch op {
		case 0:
			fs.Balance(0.05 + rng.Float64()*0.3)
		case 1:
			// A crash repaired at once: the retire-and-re-replicate path.
			if live := fs.LiveNodes(); len(live) > 4 {
				fs.Crash(live[rng.Intn(len(live))])
				fs.ReReplicate()
				repaired = true
			}
		case 2:
			// May legitimately fail (dst dead or already a holder).
			_ = fs.MoveReplica(c.ID, c.Replicas[rng.Intn(len(c.Replicas))], rng.Intn(nodes))
		case 3:
			_ = fs.AddReplica(c.ID, rng.Intn(nodes))
		case 4:
			_ = fs.RemoveReplica(c.ID, c.Replicas[rng.Intn(len(c.Replicas))])
		case 5:
			if live := fs.LiveNodes(); len(live) > 4 {
				fs.Crash(live[rng.Intn(len(live))])
			}
		case 6:
			fs.ReReplicate()
			repaired = true
		case 7:
			created++
			_, err = fs.Create(fmt.Sprintf("/more%d", created), float64(1+rng.Intn(6))*64)
		case 8:
			_ = fs.SetReplicationTarget(c.ID, 1+rng.Intn(5))
		case 9:
			// A node rejoins empty, or an empty node is withdrawn.
			if n := rng.Intn(nodes); fs.dead[n] {
				err = fs.AddNode(n)
			} else if len(fs.perNode[n]) == 0 && len(fs.LiveNodes()) > 4 {
				err = fs.MarkDead(n)
			}
		case 10:
			mustFail = true
			if rng.Intn(2) == 0 {
				_, err = fs.CreateChunks("/bad", []float64{64, 64, -1})
			} else {
				_, err = fs.CreateChunksReplicated("/bad", []float64{64, 64}, [][]int{{fs.LiveNodes()[0]}, {nodes}})
			}
		case 11:
			// The add half succeeds, the remove half cannot: src holds no
			// copy. The move must fail and roll the add back.
			mustFail = true
			free := filter(fs.LiveNodes(), func(n int) bool { return !c.HostedOn(n) })
			if len(free) < 2 {
				mustFail = false
				break
			}
			err = fs.MoveReplica(c.ID, free[0], free[1])
		}
		if mustFail != (err != nil) {
			t.Errorf("seed %d step %d op %d: err = %v, want failure: %v", seed, step, op, err, mustFail)
			return false
		}
		if problems := fs.Fsck(); len(problems) != 0 {
			t.Errorf("seed %d step %d op %d: fsck found %v", seed, step, op, problems)
			return false
		}
		if fs.Epoch() < epochBefore {
			t.Errorf("seed %d step %d op %d: epoch went back %d -> %d", seed, step, op, epochBefore, fs.Epoch())
			return false
		}
		live := fs.LiveNodes()
		for i, c := range fs.chunks {
			// The one-number stamp: the chunks a step touched are exactly
			// those whose epoch now exceeds the global epoch before it.
			stamped := i >= len(before) || fs.ChunkEpoch(c.ID) != before[i].epoch
			if newer := fs.ChunkEpoch(c.ID) > epochBefore; newer != stamped {
				t.Errorf("seed %d step %d op %d: chunk %d epoch %d, global epoch before %d: newer %v, stamped %v",
					seed, step, op, c.ID, fs.ChunkEpoch(c.ID), epochBefore, newer, stamped)
				return false
			}
			for _, r := range c.Replicas {
				if fs.dead[r] {
					t.Errorf("seed %d step %d op %d: chunk %d has a replica on dead node %d", seed, step, op, c.ID, r)
					return false
				}
			}
			if i < len(before) {
				was := before[i]
				changed := was.target != c.target || !slices.Equal(was.replicas, c.Replicas)
				if changed && c.epoch <= was.epoch {
					t.Errorf("seed %d step %d op %d: chunk %d went %v/%d -> %v/%d with its epoch still %d",
						seed, step, op, c.ID, was.replicas, was.target, c.Replicas, c.target, c.epoch)
					return false
				}
				if mustFail && changed {
					t.Errorf("seed %d step %d op %d: failed operation changed chunk %d", seed, step, op, c.ID)
					return false
				}
			}
			if repaired && len(c.Replicas) > 0 && len(c.Replicas) < c.target && len(c.Replicas) < len(live) {
				t.Errorf("seed %d step %d: ReReplicate left chunk %d at %d of %d replicas with %d live nodes",
					seed, step, c.ID, len(c.Replicas), c.target, len(live))
				return false
			}
		}
		if mustFail && op == 10 && (len(fs.chunks) != len(before) || fs.Epoch() != epochBefore) {
			t.Errorf("seed %d step %d: failed create left %d chunks (was %d), epoch %d (was %d)",
				seed, step, len(fs.chunks), len(before), fs.Epoch(), epochBefore)
			return false
		}
	}
	return true
}

// fuzzDraws reads a ledger script's choices off fuzz bytes, one byte per
// draw, and zeros once they run out.
type fuzzDraws []byte

func (d *fuzzDraws) Intn(n int) int {
	if len(*d) == 0 {
		return 0
	}
	v := int((*d)[0]) % n
	*d = (*d)[1:]
	return v
}

func (d *fuzzDraws) Float64() float64 { return float64(d.Intn(256)) / 256 }

// FuzzLedger runs TestPropertyFsckSurvivesMutations' script with its choices
// read off the fuzzer's bytes, under the same oracle: fsck-clean after every
// step, no replica on a dead node, a newer epoch on every changed chunk, and
// every repairable chunk back at its replication floor after ReReplicate.
func FuzzLedger(f *testing.F) {
	f.Add(int64(1), []byte{})
	rng := rand.New(rand.NewSource(15))
	for i := int64(0); i < 8; i++ {
		data := make([]byte, 96)
		rng.Read(data)
		f.Add(i, data)
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		d := fuzzDraws(data)
		if !ledgerScript(t, seed, &d) {
			t.FailNow()
		}
	})
}

func TestFsckDetectsCorruption(t *testing.T) {
	fs := newFS(8, 62)
	f, _ := fs.Create("/a", 64*4)
	// Corrupt deliberately: desync a replica list from the per-node index by
	// mutating the chunk directly.
	c := fs.Chunk(f.Chunks[0])
	c.Replicas = append(c.Replicas, 7)
	if len(fs.Fsck()) == 0 {
		t.Fatal("fsck missed a replica/index desync")
	}
}
