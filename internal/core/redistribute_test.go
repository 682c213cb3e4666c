package core

import (
	"testing"

	"opass/internal/dfs"
)

// storeOf is the file system behind a test problem's placement view.
func storeOf(p *Problem) *dfs.FileSystem { return p.FS.(*dfs.FileSystem) }

func TestRedistributionMakesAssignmentLocal(t *testing.T) {
	// Clustered placement: all data on nodes 0..2 of 8, so Opass cannot get
	// past partial locality; redistribution should finish the job.
	p, fs := buildSingle(t, 8, 40, 31, dfs.ClusteredPlacement{})
	a, err := SingleData{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.LocalityFraction() >= 1 {
		t.Fatalf("locality already %v; fixture broken", a.LocalityFraction())
	}
	plan, err := PlanRedistribution(storeOf(p), p, a)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MovedMB == 0 || len(plan.Migrations) == 0 {
		t.Fatal("plan moved nothing despite remote inputs")
	}
	if err := plan.Apply(storeOf(p)); err != nil {
		t.Fatal(err)
	}
	// Recompute locality of the SAME assignment on the mutated placement.
	a = newAssignment(p, nil, &answerBuf{owner: a.Owner}, a.Matched)
	if a.LocalityFraction() != 1.0 {
		t.Fatalf("post-redistribution locality %v, want 1.0", a.LocalityFraction())
	}
	// Replica invariants survived the surgery.
	for i := 0; i < fs.NumChunks(); i++ {
		c := fs.Chunk(dfs.ChunkID(i))
		seen := map[int]bool{}
		for _, r := range c.Replicas {
			if seen[r] {
				t.Fatalf("chunk %d has duplicate replica after redistribution", i)
			}
			seen[r] = true
		}
		if len(c.Replicas) != 3 {
			t.Fatalf("chunk %d replication changed to %d", i, len(c.Replicas))
		}
	}
}

func TestRedistributionBreakEven(t *testing.T) {
	p, _ := buildSingle(t, 8, 40, 32, dfs.ClusteredPlacement{})
	a, _ := SingleData{}.Assign(p)
	plan, err := PlanRedistribution(storeOf(p), p, a)
	if err != nil {
		t.Fatal(err)
	}
	// Moving a chunk once costs the same as reading it remotely once, so a
	// single-input workload breaks even after exactly one run.
	if plan.BreakEvenRuns < 0.99 || plan.BreakEvenRuns > 1.01 {
		t.Fatalf("break-even runs = %v, want ~1 for single-input tasks", plan.BreakEvenRuns)
	}
}

func TestRedistributionNoopWhenFullyLocal(t *testing.T) {
	p, _ := buildSingle(t, 8, 80, 33, dfs.RoundRobinPlacement{})
	a, _ := SingleData{}.Assign(p)
	if a.LocalityFraction() != 1 {
		t.Fatal("fixture should be fully local")
	}
	plan, err := PlanRedistribution(storeOf(p), p, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Migrations) != 0 || plan.MovedMB != 0 || plan.BreakEvenRuns != 0 {
		t.Fatalf("expected empty plan, got %+v", plan)
	}
}

func TestRedistributionMultiData(t *testing.T) {
	p := multiProblem(t, 8, 24, 34)
	a, err := MultiData{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	before := a.LocalityFraction()
	plan, err := PlanRedistribution(storeOf(p), p, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Apply(storeOf(p)); err != nil {
		t.Fatal(err)
	}
	a = newAssignment(p, nil, &answerBuf{owner: a.Owner}, a.Matched)
	if a.LocalityFraction() <= before {
		t.Fatalf("redistribution did not improve multi-data locality: %v -> %v",
			before, a.LocalityFraction())
	}
	if a.LocalityFraction() != 1.0 {
		t.Fatalf("multi-data locality after redistribution %v, want 1.0", a.LocalityFraction())
	}
}

func TestRedistributionValidatesAssignment(t *testing.T) {
	p, _ := buildSingle(t, 4, 8, 35, dfs.RandomPlacement{})
	bad := &Assignment{Owner: []int{0}, Lists: make([][]int, 4)}
	if _, err := PlanRedistribution(storeOf(p), p, bad); err == nil {
		t.Fatal("invalid assignment must be rejected")
	}
}

// TestRedistributionSharedChunkAcrossOwners is the regression test for the
// residual-remote accounting bug: a chunk shared by two single-input tasks
// whose owners sit on different nodes can be re-homed for only one of them,
// so the other's bytes stay remote every run. The old code counted those
// bytes as eliminated, halving BreakEvenRuns.
func TestRedistributionSharedChunkAcrossOwners(t *testing.T) {
	fs := dfs.New(view{4}, dfs.Config{Replication: 2})
	f, err := fs.CreateChunksReplicated("/shared", []float64{64}, [][]int{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	shared := f.Chunks[0]
	p := &Problem{
		ProcNode: []int{0, 1}, // proc 0 on node 0, proc 1 on node 1
		Tasks: []Task{
			{ID: 0, Inputs: []Input{{Chunk: shared, SizeMB: 64}}},
			{ID: 1, Inputs: []Input{{Chunk: shared, SizeMB: 64}}},
		},
		FS: fs,
	}
	a := &Assignment{Owner: []int{0, 1}, Lists: [][]int{{0}, {1}}}
	plan, err := PlanRedistribution(storeOf(p), p, a)
	if err != nil {
		t.Fatal(err)
	}
	// One move re-homes the chunk for task 0; task 1's copy of the bytes
	// stays remote.
	if len(plan.Migrations) != 1 || plan.MovedMB != 64 {
		t.Fatalf("migrations = %+v (moved %v MB), want one 64 MB move", plan.Migrations, plan.MovedMB)
	}
	if plan.RemoteMBPerRun != 128 {
		t.Fatalf("RemoteMBPerRun = %v, want 128 (both tasks read remotely pre-plan)", plan.RemoteMBPerRun)
	}
	if plan.ResidualRemoteMBPerRun != 64 {
		t.Fatalf("ResidualRemoteMBPerRun = %v, want 64 (task 1 stays remote)", plan.ResidualRemoteMBPerRun)
	}
	// Saved traffic is 64 MB/run for a 64 MB move: break-even after 1 run,
	// not the 0.5 the old accounting promised.
	if plan.BreakEvenRuns < 0.99 || plan.BreakEvenRuns > 1.01 {
		t.Fatalf("BreakEvenRuns = %v, want 1", plan.BreakEvenRuns)
	}
	// The residual forecast matches reality: apply and recompute locality.
	if err := plan.Apply(storeOf(p)); err != nil {
		t.Fatal(err)
	}
	a = newAssignment(p, nil, &answerBuf{owner: a.Owner}, a.Matched)
	wantLocal := (128.0 - 64.0) / 128.0
	if got := a.LocalityFraction(); got != wantLocal {
		t.Fatalf("post-apply locality = %v, want %v (doc claim of full locality is false for shared chunks)",
			got, wantLocal)
	}
}

// TestRedistributionDonatedReplicaResidual covers the second residual
// shape: the donor replica chosen for one task's move is the very copy a
// co-located task was reading, so that task turns remote after Apply.
func TestRedistributionDonatedReplicaResidual(t *testing.T) {
	// Chunk on {2,3}; node 2 is made the most loaded holder so it donates.
	fs := dfs.New(view{4}, dfs.Config{Replication: 2})
	f, err := fs.CreateChunksReplicated("/shared", []float64{64}, [][]int{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateChunksReplicated("/ballast", []float64{1}, [][]int{{2, 3}}); err != nil {
		t.Fatal(err) // also on {2,3}: keeps loads equal, Replicas[0]=2 donates
	}
	shared := f.Chunks[0]
	p := &Problem{
		ProcNode: []int{0, 2}, // proc 1 sits on holder node 2
		Tasks: []Task{
			{ID: 0, Inputs: []Input{{Chunk: shared, SizeMB: 64}}},
			{ID: 1, Inputs: []Input{{Chunk: shared, SizeMB: 64}}},
		},
		FS: fs,
	}
	a := &Assignment{Owner: []int{0, 1}, Lists: [][]int{{0}, {1}}}
	plan, err := PlanRedistribution(storeOf(p), p, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Migrations) != 1 || plan.Migrations[0].From != 2 || plan.Migrations[0].To != 0 {
		t.Fatalf("migrations = %+v, want one move 2->0", plan.Migrations)
	}
	// Task 1 was local on node 2 pre-plan (zero pre-plan remote for it)
	// but its replica was donated away: it is remote post-plan.
	if plan.RemoteMBPerRun != 64 {
		t.Fatalf("RemoteMBPerRun = %v, want 64", plan.RemoteMBPerRun)
	}
	if plan.ResidualRemoteMBPerRun != 64 {
		t.Fatalf("ResidualRemoteMBPerRun = %v, want 64 (donated replica turned task 1 remote)",
			plan.ResidualRemoteMBPerRun)
	}
	if plan.BreakEvenRuns != 0 {
		t.Fatalf("BreakEvenRuns = %v, want 0: the plan saves nothing per run", plan.BreakEvenRuns)
	}
}

// TestRedistributionDonorAfterNodeRemoval is the regression test for the
// donor-load seeding bug: live node IDs are not contiguous after a node
// removal, and the old 0..len(LiveNodes()) seeding loop read high-ID holders
// as hosting nothing, so the most loaded holder was never picked as donor.
func TestRedistributionDonorAfterNodeRemoval(t *testing.T) {
	fs := dfs.New(view{8}, dfs.Config{Replication: 2})
	if err := fs.MarkDead(1); err != nil { // live IDs: {0,2,...,7}, len(LiveNodes())=7
		t.Fatal(err)
	}
	f, err := fs.CreateChunksReplicated("/data", []float64{64}, [][]int{{2, 7}}) // the chunk to re-home
	if err != nil {
		t.Fatal(err)
	}
	// Ballast making node 7 the most loaded holder.
	if _, err := fs.CreateChunksReplicated("/ballast", []float64{128, 128}, [][]int{{3, 7}, {3, 7}}); err != nil {
		t.Fatal(err)
	}
	// Loads: node 2 = 64, node 3 = 256, node 7 = 320 — node 7 must donate.
	p := &Problem{
		ProcNode: []int{0},
		Tasks:    []Task{{ID: 0, Inputs: []Input{{Chunk: f.Chunks[0], SizeMB: 64}}}},
		FS:       fs,
	}
	a := &Assignment{Owner: []int{0}, Lists: [][]int{{0}}}
	plan, err := PlanRedistribution(storeOf(p), p, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Migrations) != 1 {
		t.Fatalf("migrations = %+v, want exactly one", plan.Migrations)
	}
	if got := plan.Migrations[0].From; got != 7 {
		t.Fatalf("donor = node %d, want 7 (the most loaded holder; high live IDs must be seeded)", got)
	}
	if err := plan.Apply(storeOf(p)); err != nil {
		t.Fatal(err)
	}
	if problems := fs.Fsck(); len(problems) != 0 {
		t.Fatalf("fsck after apply: %v", problems)
	}
}

func TestReplicaSurgeryPrimitives(t *testing.T) {
	fs := dfs.New(view{8}, dfs.Config{Seed: 36})
	f, _ := fs.Create("/a", 64)
	c := fs.Chunk(f.Chunks[0])
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
	if len(c.Replicas) != 4 || !c.HostedOn(free) {
		t.Fatalf("add replica failed: %v", c.Replicas)
	}
	if err := fs.AddReplica(c.ID, free); err == nil {
		t.Fatal("duplicate add must fail")
	}
	if err := fs.RemoveReplica(c.ID, free); err != nil {
		t.Fatal(err)
	}
	if c.HostedOn(free) {
		t.Fatal("remove replica failed")
	}
	if err := fs.RemoveReplica(c.ID, free); err == nil {
		t.Fatal("removing absent replica must fail")
	}
	// Refuse to drop the last copy.
	for len(c.Replicas) > 1 {
		if err := fs.RemoveReplica(c.ID, c.Replicas[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.RemoveReplica(c.ID, c.Replicas[0]); err == nil {
		t.Fatal("last replica must be protected")
	}
	// Move: src must hold a copy, dst must not.
	src := c.Replicas[0]
	dst := (src + 1) % 8
	if err := fs.MoveReplica(c.ID, src, dst); err != nil {
		t.Fatal(err)
	}
	if c.HostedOn(src) || !c.HostedOn(dst) {
		t.Fatalf("move failed: %v", c.Replicas)
	}
	if err := fs.MoveReplica(c.ID, src, dst); err == nil {
		t.Fatal("move from non-holder must fail")
	}
}
