package dfs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dumpLedger renders everything the placement ledger decides: the global
// epoch, every chunk's replica list, target and epoch, every node's hosted
// list in raw index order (HostedBy would sort it, hiding the order
// moveOneReplica's tie-break and ReReplicate's RNG draws follow), and the
// replica every reader would be served. Nothing here ranges over a map.
func dumpLedger(b *strings.Builder, fs *FileSystem) {
	fmt.Fprintf(b, "epoch=%d files=%v\n", fs.Epoch(), fs.Files())
	nodes := fs.view.NumNodes()
	for _, c := range fs.chunks {
		fmt.Fprintf(b, "chunk %d %s[%d] %gMB replicas=%v target=%d epoch=%d\n",
			c.ID, c.File, c.Index, c.SizeMB, c.Replicas, c.target, c.epoch)
		if len(c.Replicas) == 0 {
			_, _, err := fs.PickReplicaAvoiding(c.ID, 0, 0, nil)
			fmt.Fprintf(b, "  pick: %v\n", err)
			continue
		}
		avoided := c.Replicas[0]
		avoid := func(n int) bool { return n == avoided }
		b.WriteString("  pick:")
		for reader := -1; reader < nodes; reader++ {
			n, local, _ := fs.PickReplicaAvoiding(c.ID, reader, 0, nil)
			fmt.Fprintf(b, " %d>%d%s", reader, n, localMark(local))
			for _, salt := range []uint64{0, 3} {
				n, local, err := fs.PickReplicaAvoiding(c.ID, reader, salt, avoid)
				if err != nil {
					b.WriteString(",none")
					continue
				}
				fmt.Fprintf(b, ",%d%s", n, localMark(local))
			}
		}
		b.WriteByte('\n')
	}
	for n := 0; n < nodes; n++ {
		fmt.Fprintf(b, "node %d dead=%v hosted=%v\n", n, fs.dead[n], fs.perNode[n])
	}
}

func localMark(local bool) string {
	if local {
		return "L"
	}
	return ""
}

// TestLedgerTranscript replays a fixed script of every placement mutation
// on a seeded 12-node / 3-rack file system and compares the full ledger
// after each step with testdata/ledger_transcript.txt. The last line is one
// draw from the file system's RNG, pinning how much of the stream the script
// consumed. A deliberate behaviour change deletes the
// file and runs this test once to write the new one.
func TestLedgerTranscript(t *testing.T) {
	checkTranscript(t, ledgerTranscript(t, New(rackedView(12, 3), Config{Seed: 20150525})))
}

// TestResetReplaysTheTranscript: a file system that lived on a larger
// cluster — every mutation of the script, crashes and repairs, access
// accounting, a store grown past what the script needs — and was then Reset
// over the transcript's 12-node view replays the script exactly as a new one
// does: every replica list, index row, epoch, pick and RNG draw.
func TestResetReplaysTheTranscript(t *testing.T) {
	v := &view{nodes: 20, racks: 4}
	fs := New(v, Config{Seed: 20150525})
	fs.EnableAccessStats(30)
	ledgerTranscript(t, fs)
	if _, err := fs.Create("/big", 64*400); err != nil {
		t.Fatal(err)
	}
	v.nodes, v.racks = 12, 3
	fs.Reset()
	if fs.access != nil {
		t.Fatal("access accounting survived Reset")
	}
	checkTranscript(t, ledgerTranscript(t, fs))
}

// ledgerTranscript runs the transcript's mutation script on fs, a file
// system as New returns it over a 12-node, 3-rack view seeded 20150525, and
// returns the ledger after each step.
func ledgerTranscript(t *testing.T, fs *FileSystem) string {
	var b strings.Builder
	step := func(desc string, result ...interface{}) {
		fmt.Fprintf(&b, "== %s -> %v\n", desc, result)
		dumpLedger(&b, fs)
		if problems := fs.Fsck(); len(problems) != 0 {
			t.Errorf("after %s: fsck %v", desc, problems)
		}
	}
	errOf := func(_ *File, err error) error { return err }

	step("MarkDead(10)", fs.MarkDead(10))
	step("MarkDead(11)", fs.MarkDead(11))
	step(`Create("/a", 300)`, errOf(fs.Create("/a", 300)))
	step(`Create("/a", 64) again`, errOf(fs.Create("/a", 64)))
	step(`CreateChunks("/b", 56 56 20 64)`, errOf(fs.CreateChunks("/b", []float64{56, 56, 20, 64})))
	step(`CreateChunksReplicated("/c")`, errOf(fs.CreateChunksReplicated("/c",
		[]float64{64, 32, 48, 64},
		[][]int{{5}, {7, 2, 5, 0}, {9, 5}, {3, 8, 1}})))
	step(`CreateChunksReplicated("/bad") on a dead node`, errOf(fs.CreateChunksReplicated("/bad",
		[]float64{64, 64}, [][]int{{1, 2}, {3, 11}})))
	step("AddNode(10)", fs.AddNode(10))
	step("AddNode(11)", fs.AddNode(11))
	step("Balance(0.1)", fs.Balance(0.1))
	under, lost, err := fs.Crash(5)
	step("Crash(5)", under, lost, err)
	step("ReReplicate()", fs.ReReplicate())
	step("AddReplica(0, 11)", fs.AddReplica(0, 11))
	step("AddReplica(0, 11) again", fs.AddReplica(0, 11))
	victim := fs.Chunk(1).Replicas[1]
	step(fmt.Sprintf("RemoveReplica(1, %d)", victim), fs.RemoveReplica(1, victim))
	src := fs.Chunk(3).Replicas[0]
	dst := 0
	for fs.Chunk(3).HostedOn(dst) || fs.dead[dst] {
		dst++
	}
	step(fmt.Sprintf("MoveReplica(3, %d, %d)", src, dst), fs.MoveReplica(3, src, dst))
	// The add half succeeds, the remove half fails (src holds no copy), and
	// the add is rolled back.
	src, dst = 0, 1
	for fs.Chunk(4).HostedOn(src) || fs.dead[src] {
		src++
	}
	for dst == src || fs.Chunk(4).HostedOn(dst) || fs.dead[dst] {
		dst++
	}
	step(fmt.Sprintf("MoveReplica(4, %d, %d) rolled back", src, dst), fs.MoveReplica(4, src, dst))
	step("SetReplicationTarget(6, 5)", fs.SetReplicationTarget(6, 5))
	step("ReReplicate() after setrep", fs.ReReplicate())
	step(`Create("/d", 100)`, errOf(fs.Create("/d", 100)))
	step("Balance(0.05)", fs.Balance(0.05))
	fmt.Fprintf(&b, "rng=%d\n", fs.rng.Int63())
	return b.String()
}

// checkTranscript compares got with testdata/ledger_transcript.txt, writing
// the file when there is none.
func checkTranscript(t *testing.T, got string) {
	t.Helper()
	path := filepath.Join("testdata", "ledger_transcript.txt")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("no golden file; wrote %s — review it and re-run", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		gl, wl = append(gl, "<end>"), append(wl, "<end>")
		t.Fatalf("ledger transcript differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
	}
}
