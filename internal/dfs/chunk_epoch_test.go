package dfs

import (
	"sync"
	"testing"
)

// chunkEpochs snapshots the placement epoch of every chunk of a file.
func chunkEpochs(fs *FileSystem, f *File) []uint64 {
	out := make([]uint64, len(f.Chunks))
	for i, id := range f.Chunks {
		out[i] = fs.Chunk(id).epoch
	}
	return out
}

// TestChunkEpochsStampOnlyAffectedChunks pins the surgical-invalidation
// contract: a placement mutation advances the epochs of exactly the chunks
// whose replica sets changed, and no others — the property that lets
// fingerprints of unrelated problems stay byte-stable under churn.
func TestChunkEpochsStampOnlyAffectedChunks(t *testing.T) {
	fs := New(testView(8), Config{Seed: 45})
	fa, err := fs.Create("/a", 256) // 4 chunks
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fs.Create("/b", 256)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range fa.Chunks {
		if got := fs.Chunk(id).epoch; got == 0 {
			t.Fatalf("chunk %d of /a created with zero epoch", i)
		}
	}

	aBefore, bBefore := chunkEpochs(fs, fa), chunkEpochs(fs, fb)
	c := fs.Chunk(fa.Chunks[0])
	free := -1
	for n := 0; n < 8; n++ {
		if !c.HostedOn(n) {
			free = n
			break
		}
	}
	if err := fs.AddReplica(c.ID, free); err != nil {
		t.Fatal(err)
	}
	aAfter, bAfter := chunkEpochs(fs, fa), chunkEpochs(fs, fb)
	if aAfter[0] <= aBefore[0] {
		t.Fatalf("AddReplica left the mutated chunk's epoch at %d (was %d)", aAfter[0], aBefore[0])
	}
	for i := 1; i < len(aAfter); i++ {
		if aAfter[i] != aBefore[i] {
			t.Fatalf("AddReplica on chunk 0 moved epoch of untouched /a chunk %d (%d -> %d)", i, aBefore[i], aAfter[i])
		}
	}
	for i := range bAfter {
		if bAfter[i] != bBefore[i] {
			t.Fatalf("AddReplica on /a moved epoch of /b chunk %d (%d -> %d)", i, bBefore[i], bAfter[i])
		}
	}

	// A crash stamps exactly the chunks that hosted a replica on the dead
	// node; chunks with no replica there keep their epochs.
	node := fs.Chunk(fa.Chunks[1]).Replicas[0]
	hosted := map[ChunkID]bool{}
	for _, id := range fs.HostedBy(node) {
		hosted[id] = true
	}
	aBefore, bBefore = chunkEpochs(fs, fa), chunkEpochs(fs, fb)
	if _, _, err := fs.Crash(node); err != nil {
		t.Fatal(err)
	}
	check := func(f *File, before []uint64) {
		t.Helper()
		after := chunkEpochs(fs, f)
		for i, id := range f.Chunks {
			if hosted[id] && after[i] <= before[i] {
				t.Fatalf("crash of node %d left epoch of hosted chunk %d unchanged", node, id)
			}
			if !hosted[id] && after[i] != before[i] {
				t.Fatalf("crash of node %d moved epoch of unhosted chunk %d", node, id)
			}
		}
	}
	check(fa, aBefore)
	check(fb, bBefore)

	// Repair stamps exactly the chunks it re-replicated.
	aBefore, bBefore = chunkEpochs(fs, fa), chunkEpochs(fs, fb)
	if repaired := fs.ReReplicate(); repaired == 0 {
		t.Fatal("crash left nothing to repair; fixture broken")
	}
	check(fa, aBefore)
	check(fb, bBefore)
}

// TestEpochReadsRaceWithMutations is the race-detector regression for the
// formerly-unsynchronized epoch counter: a reader polling Epoch() (as the
// planning service does while fingerprinting) races admin mutations on
// another goroutine. Under `go test -race` the plain uint64 field this
// replaced fails immediately; the atomic passes and stays monotonic.
func TestEpochReadsRaceWithMutations(t *testing.T) {
	fs := New(testView(8), Config{Seed: 47})
	f, err := fs.Create("/racy", 256)
	if err != nil {
		t.Fatal(err)
	}
	c := fs.Chunk(f.Chunks[0])
	free := -1
	for n := 0; n < 8; n++ {
		if !c.HostedOn(n) {
			free = n
			break
		}
	}
	src := c.Replicas[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := fs.Epoch()
			if e < last {
				t.Errorf("epoch went backwards: %d -> %d", last, e)
				return
			}
			last = e
		}
	}()
	for i := 0; i < 500; i++ {
		if err := fs.MoveReplica(c.ID, src, free); err != nil {
			t.Error(err)
			break
		}
		if err := fs.MoveReplica(c.ID, free, src); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
