package engine

import (
	"context"
	"fmt"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
)

// This file is the concurrent multi-job entry to the event loop. §V-C1 of the paper
// notes that "clusters are usually shared by multiple applications. Thus,
// Opass may not greatly enhance the performance of parallel data requests
// due to the adjustment of HDFS" — a co-running job's reads land on the
// same disks and NICs regardless of how well Opass planned its own. RunJobs
// executes several jobs against one topology simultaneously so that
// interference can be measured (the shared-cluster experiment), and
// RunJobsScheduled lets a ClusterScheduler plan each job at its arrival
// against the residual cluster instead of an empty one (the globalsched
// subsystem).

// JobSpec is one application in a concurrent run.
type JobSpec struct {
	// Problem and Source drive the job's tasks, exactly as in Run. Source
	// may be nil only under RunJobsScheduled with a non-nil scheduler, in
	// which case the scheduler supplies the source at the job's arrival.
	Problem *core.Problem
	Source  TaskSource
	// ComputeTime gives per-task compute seconds (nil = pure I/O).
	ComputeTime func(task int) float64
	// Strategy labels the job's Result.
	Strategy string
	// StartAt delays the job's processes by this many seconds of virtual
	// time after the run begins (staggered arrivals).
	StartAt float64
}

// ClusterScheduler is consulted by RunJobsScheduled at every job arrival —
// the seam for cluster-level planning above the per-job matchers (ROADMAP
// item 1; OS4M-style operation-level global balancing). Implementations
// track cumulative per-node service load across jobs and bias each arriving
// job's plan toward nodes with residual capacity.
type ClusterScheduler interface {
	// JobArriving runs when job's processes are released (at run start for
	// StartAt == 0, when the arrival timer fires otherwise). now is the
	// arrival time in seconds relative to run start. A non-nil TaskSource
	// replaces spec.Source for the job; returning nil keeps spec.Source
	// (which must then be non-nil). An error aborts the whole run.
	JobArriving(job int, spec JobSpec, now float64) (TaskSource, error)
	// JobFinished runs when the job's last process completes, with the
	// job's actual per-node served megabytes, so the scheduler can
	// reconcile its planned load estimate against ground truth.
	JobFinished(job int, servedMB []float64)
}

// ReadSteerer chooses which replica holder serves each remote read — OS4M's
// operation-level balancing on the serving side: quota biasing can only
// steer which process *owns* a task, but a task read remotely is served by
// whichever replica holder the uniform HDFS pick lands on — load the
// planner cannot place. The steerer's choice overrides the network-distance
// ordering of the default pick. Single-job runs honor it through
// Options.Balancer; RunJobsScheduled asks a ClusterScheduler that also
// implements ReadSteerer to choose the holder for every remote read and
// reports each read (local and remote) as it starts, so the balancer can
// keep a live per-node serving tally.
type ReadSteerer interface {
	// PickRemote chooses the replica holder that should serve a remote
	// read of sizeMB megabytes requested by a process on node reader.
	// holders is non-empty, never contains reader, and must not be
	// retained or mutated. Returning a node outside holders aborts the
	// run.
	PickRemote(reader int, holders []int, sizeMB float64) int
	// ReadStarted reports that node is about to serve a sizeMB read.
	ReadStarted(node int, sizeMB float64)
}

// RunJobs executes every job concurrently on the shared topology and file
// system, returning one Result per job. Each Result's times are relative to
// the run start; Result.Arrival records the job's release time so
// JobMakespan reports completion-minus-arrival. JobSpec carries no fault
// schedule: failure injection is an Options (single-job) feature.
func RunJobs(topo *cluster.Topology, fs *dfs.FileSystem, jobs []JobSpec) ([]*Result, error) {
	return RunJobsScheduled(context.Background(), topo, fs, jobs, nil)
}

// RunJobsScheduled is RunJobs under cooperative cancellation, with a
// cluster-level scheduler hooked into the arrival events. A cancelled or
// expired ctx aborts with RunContext's semantics: every in-flight flow the
// run started — reads, compute and arrival timers — is torn down, leaving
// the shared network idle and reusable. sched (when non-nil) is consulted
// as each job's processes are released and may hand the job a freshly
// planned TaskSource; it is informed of the job's actual per-node service
// load when the job drains. A nil sched degrades to plain concurrent
// execution.
func RunJobsScheduled(ctx context.Context, topo *cluster.Topology, fs *dfs.FileSystem, jobs []JobSpec, sched ClusterScheduler) ([]*Result, error) {
	if topo == nil || fs == nil {
		return nil, fmt.Errorf("engine: RunJobs requires a topology and file system")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("engine: no jobs")
	}
	rts := make([]*job, len(jobs))
	for j, spec := range jobs {
		if spec.Problem == nil {
			return nil, fmt.Errorf("engine: job %d missing problem", j)
		}
		if spec.Source == nil && sched == nil {
			return nil, fmt.Errorf("engine: job %d missing source (only scheduled runs may omit it)", j)
		}
		if err := validateJob(spec.Problem, topo, fs); err != nil {
			return nil, fmt.Errorf("engine: job %d: %w", j, err)
		}
		if spec.StartAt < 0 {
			return nil, fmt.Errorf("engine: job %d negative start time", j)
		}
		rts[j] = newJob(spec, topo.NumNodes(), new(runBuf))
	}
	opts := Options{Topo: topo, FS: fs}
	opts.Balancer, _ = sched.(ReadSteerer)
	if err := simulate(ctx, &opts, rts, sched); err != nil {
		return nil, err
	}
	results := make([]*Result, len(jobs))
	for j, rt := range rts {
		results[j] = rt.res
	}
	return results, nil
}
