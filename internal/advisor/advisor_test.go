package advisor

import (
	"reflect"
	"testing"

	"opass/internal/dfs"
)

type view struct{ nodes int }

func (v view) NumNodes() int    { return v.nodes }
func (v view) RackOf(n int) int { return 0 }

// checkInvariants asserts the advisor's safety net after any pass: a
// consistent namenode, no chunk below one replica, and the storage bill
// within budget.
func checkInvariants(t *testing.T, fs *dfs.FileSystem, budgetMB float64) {
	t.Helper()
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck: %v", problems)
	}
	for _, name := range fs.Files() {
		f, err := fs.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range f.Chunks {
			if len(fs.Chunk(id).Replicas) < 1 {
				t.Fatalf("chunk %d of %s has no replica", id, name)
			}
		}
	}
	if got := fs.TotalStoredMB(); got > budgetMB+1e-9 {
		t.Fatalf("stored %v MB exceeds budget %v MB", got, budgetMB)
	}
}

func TestNewValidation(t *testing.T) {
	fs := dfs.New(view{4}, dfs.Config{Replication: 2})
	if _, err := New(fs, Options{}); err == nil {
		t.Fatal("accepted a file system without access accounting")
	}
	fs.EnableAccessStats(100)
	if _, err := New(fs, Options{MaxActions: -1}); err == nil {
		t.Fatal("accepted a negative MaxActions")
	}
	if _, err := New(fs, Options{}); err != nil {
		t.Fatalf("rejected defaults: %v", err)
	}
}

func TestTickWithoutTrafficIsQuiet(t *testing.T) {
	fs := dfs.New(view{4}, dfs.Config{Replication: 2})
	if _, err := fs.Create("/a", 64); err != nil {
		t.Fatal(err)
	}
	fs.EnableAccessStats(100)
	a, err := New(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Epoch()
	if a.Tick(10) {
		t.Fatal("tick with zero traffic reported a change")
	}
	if fs.Epoch() != before {
		t.Fatal("tick with zero traffic mutated placement")
	}
	if st := a.Stats(); st.Ticks != 1 || st.ReplicasAdded+st.ReplicasRemoved != 0 {
		t.Fatalf("stats after quiet tick: %+v", st)
	}
}

// TestHotChunkGainsReplicaAtRemoteReader is the core promotion path: a chunk
// far above the fleet mean whose demand keeps arriving remotely gains a copy
// on the node pulling it, with the target raised first. An unread chunk's
// third copy is trimmed in the same pass to fund it.
func TestHotChunkGainsReplicaAtRemoteReader(t *testing.T) {
	fs := dfs.New(view{6}, dfs.Config{Replication: 2})
	if _, err := fs.CreateChunksReplicated("/hot", []float64{64}, [][]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	// Mildly-read filler.
	if _, err := fs.CreateChunksReplicated("/warm", []float64{64, 64, 64}, [][]int{{2, 3}, {2, 4}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	// Never read; gains a third copy below.
	if _, err := fs.CreateChunksReplicated("/old", []float64{64}, [][]int{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.AddReplica(4, 2); err != nil { // /old now has three copies, target 3
		t.Fatal(err)
	}
	fs.EnableAccessStats(1e4)
	// Node 5 hammers the hot chunk remotely; node 5 also touches the filler
	// once each so the mean is nonzero without making them cold.
	for i := 0; i < 10; i++ {
		fs.RecordRead(0, 5, false, 64, float64(i))
	}
	for id := dfs.ChunkID(1); id <= 3; id++ {
		fs.RecordRead(id, 2, true, 64, 5)
	}
	budget := fs.TotalStoredMB()
	a, err := New(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Epoch()
	if !a.Tick(10) {
		t.Fatal("tick did not report the promotion")
	}
	c := fs.Chunk(0)
	if got, want := c.Replicas, []int{0, 1, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("hot chunk replicas = %v, want %v (copy at the remote reader)", got, want)
	}
	if got := c.ReplicationTarget(); got != 3 {
		t.Fatalf("hot chunk target = %d, want 3", got)
	}
	st := a.Stats()
	if st.ReplicasAdded != 1 || st.TargetsRaised != 1 || st.ReplicasRemoved != 1 {
		t.Fatalf("stats = %+v, want one add and one raise funded by one trim", st)
	}
	if st.Hot < 1 {
		t.Fatalf("stats = %+v, want at least one hot chunk", st)
	}
	// Each mutation (setrep, add) bumps the placement epoch exactly once, so
	// a delta replan re-examines the tasks reading the chunk.
	if got := fs.Epoch() - before; got < 2 {
		t.Fatalf("epoch advanced by %d, want >= 2 (one per mutation)", got)
	}
	checkInvariants(t, fs, budget)
}

// TestColdChunkTrimmedFromMostLoadedHolder is the demotion path: a chunk far
// below the mean sheds its excess copy from the fullest node, target lowered
// first, and never drops below minReplicas.
func TestColdChunkTrimmedFromMostLoadedHolder(t *testing.T) {
	fs := dfs.New(view{5}, dfs.Config{Replication: 2})
	// Never read; gains a third copy below.
	if _, err := fs.CreateChunksReplicated("/cold", []float64{64}, [][]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateChunksReplicated("/hot", []float64{64}, [][]int{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	// Makes node 2 the fullest cold holder.
	if _, err := fs.CreateChunksReplicated("/ballast", []float64{128}, [][]int{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.AddReplica(0, 2); err != nil { // cold now {0, 1, 2}, target 3
		t.Fatal(err)
	}
	fs.EnableAccessStats(1e4)
	for i := 0; i < 10; i++ {
		fs.RecordRead(1, 3, true, 64, float64(i))
	}
	budget := fs.TotalStoredMB()
	a, err := New(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Tick(10) {
		t.Fatal("tick did not report the trim")
	}
	c := fs.Chunk(0)
	if got, want := c.Replicas, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cold chunk replicas = %v, want %v (trimmed from node 2)", got, want)
	}
	if got := c.ReplicationTarget(); got != 2 {
		t.Fatalf("cold chunk target = %d, want 2", got)
	}
	st := a.Stats()
	if st.ReplicasRemoved != 1 || st.TargetsLowered != 1 {
		t.Fatalf("stats = %+v, want one remove and one lower", st)
	}
	checkInvariants(t, fs, budget)

	// A second pass must respect the minReplicas floor: the chunk is still
	// cold but already at two copies.
	if a.Tick(20) {
		t.Fatal("second tick reported a change at the replica floor")
	}
	if got := len(fs.Chunk(0).Replicas); got != 2 {
		t.Fatalf("cold chunk at %d replicas, floor is 2", got)
	}
	checkInvariants(t, fs, budget)
}

// TestBudgetBlocksPromotion: with the default budget (the stored MB at New)
// and nothing to trim, a hot chunk cannot gain a copy — space must be freed
// first.
func TestBudgetBlocksPromotion(t *testing.T) {
	fs := dfs.New(view{4}, dfs.Config{Replication: 2})
	if _, err := fs.CreateChunksReplicated("/data", []float64{64, 64, 64, 64}, [][]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}}); err != nil {
		t.Fatal(err)
	}
	fs.EnableAccessStats(1e4)
	for i := 0; i < 10; i++ {
		fs.RecordRead(0, 2, false, 64, float64(i))
	}
	for id := dfs.ChunkID(1); id <= 3; id++ {
		fs.RecordRead(id, 0, true, 64, 5) // warm filler, nothing cold to trim
	}
	budget := fs.TotalStoredMB()
	a, err := New(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tick(10) {
		t.Fatal("tick changed placement with zero budget headroom")
	}
	if got := fs.TotalStoredMB(); got != budget {
		t.Fatalf("stored %v MB, want %v (unchanged)", got, budget)
	}
	checkInvariants(t, fs, budget)
}

// TestTrimFundsPromotionWithinBudget: the pass order (trim first, then
// promote) lets a shifting workload re-point its replicas without ever
// exceeding the original storage bill.
func TestTrimFundsPromotionWithinBudget(t *testing.T) {
	fs := dfs.New(view{6}, dfs.Config{Replication: 2})
	// Formerly hot, now abandoned; gains a third copy below.
	if _, err := fs.CreateChunksReplicated("/old", []float64{64}, [][]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	// The current hotspot.
	if _, err := fs.CreateChunksReplicated("/new", []float64{64}, [][]int{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateChunksReplicated("/filler", []float64{64, 64}, [][]int{{0, 5}, {1, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.AddReplica(0, 2); err != nil { // old now {0, 1, 2}, target 3
		t.Fatal(err)
	}
	fs.EnableAccessStats(1e4)
	for i := 0; i < 12; i++ {
		fs.RecordRead(1, 5, false, 64, float64(i)) // node 5 hammers /new remotely
	}
	fs.RecordRead(2, 0, true, 64, 5)
	fs.RecordRead(3, 1, true, 64, 5)
	budget := fs.TotalStoredMB()
	a, err := New(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Tick(12) {
		t.Fatal("tick did not adapt the placement")
	}
	st := a.Stats()
	if st.ReplicasRemoved != 1 || st.ReplicasAdded != 1 {
		t.Fatalf("stats = %+v, want one trim funding one promotion", st)
	}
	if !fs.Chunk(1).HostedOn(5) {
		t.Fatalf("hotspot replicas = %v, want a copy on the remote reader 5", fs.Chunk(1).Replicas)
	}
	if got := len(fs.Chunk(0).Replicas); got != 2 {
		t.Fatalf("abandoned chunk still at %d replicas, want 2", got)
	}
	checkInvariants(t, fs, budget)
}
