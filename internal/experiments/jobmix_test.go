package experiments

import (
	"math"
	"reflect"
	"testing"

	"opass/internal/engine"
	"opass/internal/globalsched"
)

// TestJobMixInvariants runs the scheduled side of the jobmix study at a
// small scale and checks it chaos-style: every task of every job executes
// exactly once, the per-job service profiles sum to what the reads say the
// cluster served, and the shared network drains back to idle.
func TestJobMixInvariants(t *testing.T) {
	const nodes = 16
	gs, err := globalsched.New(nodes, 31)
	if err != nil {
		t.Fatal(err)
	}
	rig, results, err := runJobMix(nodes, 31, "globalsched", gs)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.topo.Net().Active(); got != 0 {
		t.Fatalf("network has %d active flows after the mix drained", got)
	}
	clusterServed := make([]float64, nodes)
	for j, res := range results {
		prob := rig.probs[j]
		if res.TasksRun != len(prob.Tasks) {
			t.Fatalf("job %d ran %d tasks, want %d", j, res.TasksRun, len(prob.Tasks))
		}
		seen := make([]int, len(prob.Tasks))
		fromRecords := make([]float64, nodes)
		for _, rec := range res.Records {
			seen[rec.Task]++
			fromRecords[rec.SrcNode] += rec.SizeMB
			if !rig.fs.Chunk(rec.Chunk).HostedOn(rec.SrcNode) {
				t.Fatalf("job %d read chunk %d from node %d, which holds no replica", j, rec.Chunk, rec.SrcNode)
			}
		}
		for task, n := range seen {
			if n != 1 {
				t.Fatalf("job %d task %d executed %d times", j, task, n)
			}
		}
		// The job's ServedMB accounting must agree with its read records.
		for n := range fromRecords {
			if math.Abs(fromRecords[n]-res.ServedMB[n]) > 1e-6 {
				t.Fatalf("job %d served[%d] = %v, records say %v", j, n, res.ServedMB[n], fromRecords[n])
			}
			clusterServed[n] += fromRecords[n]
		}
	}
	// With every job drained the scheduler's reconciled load is exactly the
	// cluster's actual service profile.
	load := gs.Load()
	for n := range clusterServed {
		if math.Abs(load[n]-clusterServed[n]) > 1e-6 {
			t.Fatalf("scheduler load[%d] = %v, cluster served %v", n, load[n], clusterServed[n])
		}
	}
}

// TestJobMixScheduledDeterministic replays the scheduled mix twice from the
// same seed and demands byte-identical per-job results — the scheduler,
// serving balancer and engine must all be free of run-order randomness.
func TestJobMixScheduledDeterministic(t *testing.T) {
	const nodes = 16
	run := func() []*engine.Result {
		gs, err := globalsched.New(nodes, 32)
		if err != nil {
			t.Fatal(err)
		}
		_, results, err := runJobMix(nodes, 32, "globalsched", gs)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	first, second := run(), run()
	for j := range first {
		if !reflect.DeepEqual(first[j], second[j]) {
			t.Fatalf("job %d differs between identical scheduled runs", j)
		}
	}
}

// TestJobMixExperiment runs the full study small and checks the report's
// internal consistency.
func TestJobMixExperiment(t *testing.T) {
	r, err := JobMix(Config{Seed: 33, Scale: 4}) // 16 nodes
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 16 || r.Window != JobMixWindow(16) || r.Jobs != jobMixJobs {
		t.Fatalf("unexpected shape: %+v", r)
	}
	for _, side := range []JobMixSide{r.Isolated, r.Scheduled} {
		if side.ThroughputMBps <= 0 {
			t.Fatalf("%s throughput = %v", side.Label, side.ThroughputMBps)
		}
		if len(side.JobMakespans) != jobMixJobs {
			t.Fatalf("%s has %d makespans", side.Label, len(side.JobMakespans))
		}
		for j, jm := range side.JobMakespans {
			if jm <= 0 {
				t.Fatalf("%s job %d makespan = %v", side.Label, j, jm)
			}
		}
		if side.MakespanMax < side.MakespanMean {
			t.Fatalf("%s makespan max %v below mean %v", side.Label, side.MakespanMax, side.MakespanMean)
		}
		if side.Fairness <= 0 || side.Fairness > 1 {
			t.Fatalf("%s Jain index = %v", side.Label, side.Fairness)
		}
		var total float64
		for _, mb := range side.ServedMB {
			total += mb
		}
		if total <= 0 {
			t.Fatalf("%s served nothing", side.Label)
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}
