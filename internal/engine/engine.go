// Package engine executes a task assignment over the simulated cluster: it
// turns every data input of every task into a fluid flow on the cluster's
// disks and NICs, honoring the HDFS read policy (local replica preferred,
// random replica otherwise), and drives per-process state machines in
// virtual time — each MPI-style process reads its inputs sequentially,
// optionally computes, then requests its next task.
//
// Both execution models of the paper are supported through the TaskSource
// abstraction: static assignment (each process walks its own precomputed
// list, as in the ParaView experiments) and dynamic master/worker
// dispatching (an idle process asks the master for one task at a time, as
// in mpiBLAST). The engine records a ReadRecord per chunk read — the exact
// data behind Figures 7–12 — and per-node served-data counters, the
// monitor the paper describes in §V-A1.
package engine

import (
	"context"
	"fmt"
	"slices"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
)

// TaskSource feeds tasks to idle processes. Implementations include static
// per-process lists (ListSource), the Opass dynamic scheduler
// (core.DynamicScheduler) and the random master baseline
// (core.RandomDispatcher).
type TaskSource interface {
	// Next returns the next task for the idle process proc, or ok=false
	// when the process should terminate.
	Next(proc int) (task int, ok bool)
}

// PollState is a PollingSource's answer to an idle process.
type PollState int

// PollingSource answers.
const (
	// PollTask means a task was returned and should start now.
	PollTask PollState = iota
	// PollWait means no task is offered yet; the engine re-polls the
	// process after the next completion event (virtual time advances in
	// between — the "wait a small amount of time" of delay scheduling).
	PollWait
	// PollDone means the process should terminate.
	PollDone
)

// PollingSource is a TaskSource that may ask an idle process to wait —
// the seam needed by delay scheduling (Zaharia et al., EuroSys'10), which
// holds a worker briefly in the hope that a local task frees up. stalled
// is true when no work is in flight anywhere, in which case the source
// must not answer PollWait again (nothing would ever wake the process).
type PollingSource interface {
	Poll(proc int, stalled bool) (task int, state PollState)
}

// pollAdapter lifts a plain TaskSource into a PollingSource.
type pollAdapter struct{ src TaskSource }

func (a pollAdapter) Poll(proc int, _ bool) (int, PollState) {
	task, ok := a.src.Next(proc)
	if !ok {
		return 0, PollDone
	}
	return task, PollTask
}

// ListSource serves each process its own pre-assigned list in order — the
// static SPMD execution model.
type ListSource struct {
	lists [][]int
	pos   []int
}

// NewListSource builds a static source from per-process task lists. It
// copies only the slice of list headers: the source never writes into a
// list, and a replan installs new lists in its own copy.
func NewListSource(lists [][]int) *ListSource {
	return &ListSource{lists: slices.Clone(lists), pos: make([]int, len(lists))}
}

// Next implements TaskSource.
func (s *ListSource) Next(proc int) (int, bool) {
	if proc < 0 || proc >= len(s.lists) {
		panic(fmt.Sprintf("engine: unknown process %d", proc))
	}
	if s.pos[proc] >= len(s.lists[proc]) {
		return 0, false
	}
	t := s.lists[proc][s.pos[proc]]
	s.pos[proc]++
	return t, true
}

// Options configures a run.
type Options struct {
	Topo    *cluster.Topology
	FS      *dfs.FileSystem
	Problem *core.Problem
	// ComputeTime returns the post-read compute seconds for a task; nil
	// means pure I/O (the microbenchmarks). Heterogeneous workloads
	// (mpiBLAST) supply per-task irregular times here.
	ComputeTime func(task int) float64
	// ComputeFactor scales a process's compute times (nil means 1.0 for
	// every process) — the §IV-D heterogeneous environment, where the same
	// task runs slower on some nodes.
	ComputeFactor func(proc int) float64
	// Failures schedules DataNode crashes: At seconds into the run the
	// node's storage service stops serving. In-flight reads it was serving
	// are torn down and retried from another replica (HDFS read failover),
	// and subsequent replica picks avoid it. Compute on the node continues
	// — the crash models the DataNode process, not the whole machine.
	Failures []NodeFailure
	// Degradations schedules slow-node windows: the node stays alive but
	// its disk/NIC deliver a fraction of nominal throughput — the paper's
	// §III-B contention story made adversarial. Any degradation still in
	// effect when the run ends is lifted on exit, so the shared topology is
	// returned healthy.
	Degradations []NodeDegradation
	// Repair re-replicates under-replicated chunks from surviving holders
	// RepairDelay seconds after each permanent crash, bumping the file
	// system's placement epoch. Repair (and Replan) record permanent crashes
	// in the namenode via FS.Crash, so the file system is mutated by the run.
	Repair      bool
	RepairDelay float64
	// Replan re-runs the Opass matcher over the not-yet-started backlog
	// whenever the placement truth changes — permanent crash, repair
	// completion, recovery, degradation onset or end — and splices the new
	// lists into the running source, restoring locality instead of letting
	// it decay into random remote reads. It applies to a ListSource; other
	// sources hold no per-process backlog and are left untouched. Processes
	// on storage-dead nodes get weight 0 and degraded nodes their DiskFactor
	// — the §IV-D "load capacity" skew, applied to the quotas of
	// single- and multi-input backlogs alike — so survivors absorb the
	// backlog locally.
	Replan bool
	// ReplanFull forces every replan to re-match the entire backlog. By
	// default a replan triggered by a node event re-matches only the
	// affected pending tasks (see ReplanBacklogDelta) — the O(delta) path
	// the incremental plannerbench series measures.
	ReplanFull bool
	// ReplanSeed seeds the re-matching (each replan round perturbs it).
	ReplanSeed int64
	// Balancer, when non-nil, chooses the replica holder for every remote
	// read and is told of every read start. Holders passed to PickRemote
	// never include the reader or a crashed node. RunJobsScheduled fills it
	// from a scheduler that implements ReadSteerer.
	Balancer ReadSteerer
	// Advisor, when non-nil, runs a placement-advisory pass every
	// AdvisorInterval seconds of virtual time while any process is still
	// working — the adaptive replication loop (internal/advisor) that
	// turns the access telemetry recorded on the read path back into
	// replica moves. A pass that reports changes triggers a replan of the
	// pending backlog when Options.Replan is on.
	Advisor AdvisorTicker
	// AdvisorInterval is the advisor period in seconds; required positive
	// when Advisor is set.
	AdvisorInterval float64
	// Strategy labels the run in reports.
	Strategy string
}

// AdvisorTicker is the periodic placement-advisor hook: the engine fires
// Tick every Options.AdvisorInterval seconds of virtual time. now is the
// cluster's absolute virtual clock (sequential rounds share it, so decayed
// access scores age correctly across rounds). Tick may mutate the run's
// file system through the replica machinery (AddReplica, RemoveReplica,
// SetReplicationTarget, ReReplicate, Balance) and reports whether anything
// changed.
type AdvisorTicker interface {
	Tick(now float64) bool
}

// NodeFailure is one scheduled DataNode crash. The json tags are the
// /v1/simulate wire form, which decodes straight into this type.
type NodeFailure struct {
	Node int     `json:"node"`
	At   float64 `json:"at_seconds"` // seconds after run start
	// RecoverAt, when positive, restores the node's storage service at that
	// time (a transient outage: the DataNode process restarts with its data
	// intact, so the namenode metadata never changes). It must be greater
	// than At. Zero means the crash is permanent.
	RecoverAt float64 `json:"recover_at_seconds,omitempty"`
}

// NodeDegradation is one scheduled slow-node window: from At to Until
// (Until 0 = rest of the run) the node's disk runs at DiskFactor and both
// NIC directions at NICFactor of nominal bandwidth. Factors are in (0, 1].
type NodeDegradation struct {
	Node       int     `json:"node"`
	At         float64 `json:"at_seconds"`
	Until      float64 `json:"until_seconds,omitempty"`
	DiskFactor float64 `json:"disk_factor"`
	NICFactor  float64 `json:"nic_factor"`
}

// ValidateFaults checks a fault model against a cluster with the given
// number of nodes. It is the one statement of these rules: Options.validate
// applies it to the run's topology, and the planning service to a submitted
// request before it plans anything. Every comparison is written so that NaN
// fails it.
func ValidateFaults(nodes int, failures []NodeFailure, degradations []NodeDegradation, repairDelay float64) error {
	for i, f := range failures {
		switch {
		case f.Node < 0 || f.Node >= nodes:
			return fmt.Errorf("engine: failures[%d]: node %d outside the %d-node cluster", i, f.Node, nodes)
		case !(f.At >= 0):
			return fmt.Errorf("engine: failures[%d]: time %v must be non-negative", i, f.At)
		case f.RecoverAt != 0 && !(f.RecoverAt > f.At):
			return fmt.Errorf("engine: failures[%d]: recovery at %v must be after the failure at %v", i, f.RecoverAt, f.At)
		}
	}
	if !(repairDelay >= 0) {
		return fmt.Errorf("engine: repair delay %v must be non-negative", repairDelay)
	}
	for i, d := range degradations {
		switch {
		case d.Node < 0 || d.Node >= nodes:
			return fmt.Errorf("engine: degradations[%d]: node %d outside the %d-node cluster", i, d.Node, nodes)
		case !(d.At >= 0):
			return fmt.Errorf("engine: degradations[%d]: time %v must be non-negative", i, d.At)
		case d.Until != 0 && !(d.Until > d.At):
			return fmt.Errorf("engine: degradations[%d]: end %v must be after its start %v", i, d.Until, d.At)
		case !(d.DiskFactor > 0 && d.DiskFactor <= 1) || !(d.NICFactor > 0 && d.NICFactor <= 1):
			return fmt.Errorf("engine: degradations[%d]: factors %v/%v must be in (0,1]", i, d.DiskFactor, d.NICFactor)
		}
	}
	return nil
}

// validateJob is the check every job passes before the loop runs it: a
// structurally valid problem that reads its placement from fs, the store the
// run crashes, repairs and replans against, and whose processes all sit on
// nodes of topo.
func validateJob(p *core.Problem, topo *cluster.Topology, fs *dfs.FileSystem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.FS != core.Placement(fs) {
		return fmt.Errorf("engine: the problem reads a different file system than the run")
	}
	for _, node := range p.ProcNode {
		if node < 0 || node >= topo.NumNodes() {
			return fmt.Errorf("engine: process on node %d outside %d-node topology", node, topo.NumNodes())
		}
	}
	return nil
}

func (o *Options) validate() error {
	if o.Topo == nil || o.FS == nil || o.Problem == nil {
		return fmt.Errorf("engine: options require Topo, FS and Problem")
	}
	if err := validateJob(o.Problem, o.Topo, o.FS); err != nil {
		return err
	}
	if o.Advisor != nil && o.AdvisorInterval <= 0 {
		return fmt.Errorf("engine: advisor interval %v must be positive", o.AdvisorInterval)
	}
	return ValidateFaults(o.Topo.NumNodes(), o.Failures, o.Degradations, o.RepairDelay)
}

// ReadRecord describes one chunk read: who read what from where and how
// long it took.
type ReadRecord struct {
	Proc    int
	Task    int
	Chunk   dfs.ChunkID
	SrcNode int
	DstNode int
	Local   bool
	SizeMB  float64
	Start   float64
	End     float64
}

// Duration is the request's I/O time (including startup latency).
func (r ReadRecord) Duration() float64 { return r.End - r.Start }

// Result aggregates one run.
type Result struct {
	Strategy string
	// Records lists every chunk read in completion order.
	Records []ReadRecord
	// Makespan is the virtual time from run start to the last process
	// finishing — the job time under barrier synchronization. In a
	// concurrent run (RunJobs) "run start" is the start of the whole mix,
	// not the job's arrival: a job with StartAt > 0 includes its arrival
	// delay here. Use JobMakespan for the job's own execution time.
	Makespan float64
	// Arrival is the virtual time at which the job's processes were
	// released, relative to run start. Single-job runs leave it 0; RunJobs
	// sets it to the job's StartAt.
	Arrival float64
	// ServedMB[node] is the data served by each storage node (the paper's
	// per-node monitor).
	ServedMB []float64
	// ProcFinish[proc] is each process's completion time relative to start.
	ProcFinish []float64
	// TasksRun counts executed tasks.
	TasksRun int
	// Retries counts reads torn down by a DataNode failure and reissued
	// against another replica.
	Retries int
	// PeakConcurrentReads[node] is the largest number of reads the node's
	// disk served simultaneously — the §III-B contention depth ("the read
	// requests from different processes will compete for the hard disk
	// head").
	PeakConcurrentReads []int
	// DiskUtilization[node] is the fraction of the node's disk bandwidth
	// used over the run — the "parallel use of storage nodes/disks" the
	// paper says imbalance wastes. A perfectly balanced all-local job
	// drives every disk near 1.0; a skewed job leaves most disks idle.
	DiskUtilization []float64
	// FailedNodes lists nodes whose storage service crashed during the run.
	FailedNodes []int
	// RecoveredNodes lists nodes whose storage service came back (transient
	// failures), in recovery order.
	RecoveredNodes []int
	// Replans counts matcher re-runs that actually spliced a new backlog
	// into the source.
	Replans int
	// DeltaReplannedTasks counts the pending tasks re-matched by O(delta)
	// replans. Full re-matches (Options.ReplanFull) leave it untouched, so
	// the ratio to the backlog size measures how surgical replanning was.
	DeltaReplannedTasks int
	// RepairedChunks counts chunks re-replication brought back toward the
	// configured replication factor.
	RepairedChunks int
	// AdvisorTicks counts placement-advisor passes fired during the run.
	AdvisorTicks int
	// RackLocalMB / CrossRackMB split the remote read traffic by rack
	// boundary: a remote read served within the reader's rack counts as
	// rack-local, one whose source and destination racks differ as
	// cross-rack (the bytes that traverse an uplink on an oversubscribed
	// fabric). Local reads count toward neither. On a single-rack topology
	// every remote byte is rack-local.
	RackLocalMB float64
	CrossRackMB float64

	// buf is the storage Records and the per-node and per-process vectors
	// are carved from, lent until Release.
	buf      *runBuf
	released bool
}

// Release returns the result's storage — Records and the per-node and
// per-process vectors — to the package pool for the next run. Like
// core.Assignment.Release it is optional: a result that is simply dropped is
// garbage-collected. The caller must be the sole user of the result and of
// every slice read from it; after Release they are invalid and the result's
// slices are nil. Releasing twice panics; releasing a nil result is a no-op.
func (r *Result) Release() {
	if r == nil {
		return
	}
	if r.released {
		panic("engine: Result.Release called twice")
	}
	r.released = true
	if r.buf != nil {
		runPool.Put(r.buf)
	}
	r.Records, r.ServedMB, r.ProcFinish, r.PeakConcurrentReads, r.DiskUtilization, r.buf = nil, nil, nil, nil, nil, nil
}

// JobMakespan is the job's execution time measured from its own arrival
// (completion minus arrival) — the per-job latency a tenant observes in a
// staggered mix. For single-job runs it equals Makespan.
func (r *Result) JobMakespan() float64 {
	v := r.Makespan - r.Arrival
	if v < 0 {
		return 0
	}
	return v
}

// IOTimes extracts per-read durations in completion order.
func (r *Result) IOTimes() []float64 {
	out := make([]float64, len(r.Records))
	for i, rec := range r.Records {
		out[i] = rec.Duration()
	}
	return out
}

// LocalFraction is the fraction of megabytes read locally.
func (r *Result) LocalFraction() float64 {
	var local, total float64
	for _, rec := range r.Records {
		total += rec.SizeMB
		if rec.Local {
			local += rec.SizeMB
		}
	}
	if total == 0 {
		return 0
	}
	return local / total
}

// Run executes tasks from src until every process has drained, returning
// the trace. The topology's network must be idle; the run may start at a
// non-zero virtual time (sequential rounds share one clock) and all times
// in the Result are relative to the run's start.
func Run(opts Options, src TaskSource) (*Result, error) {
	return RunContext(context.Background(), opts, src)
}

// RunContext is Run under cooperative cancellation: the drain loop advances
// the simulation in stepBudget-event slices and polls ctx between slices,
// so a cancelled or expired context aborts mid-simulation with ctx's error
// (satisfying errors.Is against context.Canceled / context.DeadlineExceeded)
// instead of running to completion. On abort every in-flight flow the run
// started — reads, compute timers, failure timers — is torn down, leaving
// the topology's network idle and reusable.
func RunContext(ctx context.Context, opts Options, src TaskSource) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	net, nodes := opts.Topo.Net(), opts.Topo.NumNodes()
	b := runPool.Get().(*runBuf)
	b.diskWork0 = slices.Grow(b.diskWork0[:0], nodes)[:nodes]
	diskWork0 := b.diskWork0
	for n := range diskWork0 {
		diskWork0[n] = net.WorkMB(opts.Topo.DiskResource(n))
	}
	rt := newJob(JobSpec{
		Problem:     opts.Problem,
		Source:      src,
		ComputeTime: opts.ComputeTime,
		Strategy:    opts.Strategy,
	}, nodes, b)
	rt.computeFactor = opts.ComputeFactor
	if err := simulate(ctx, &opts, []*job{rt}, nil); err != nil {
		rt.res.Release()
		return nil, err
	}
	res := rt.res
	b.diskUtil = zeroed(b.diskUtil, nodes)
	res.DiskUtilization = b.diskUtil
	if res.Makespan > 0 {
		for n := range diskWork0 {
			moved := net.WorkMB(opts.Topo.DiskResource(n)) - diskWork0[n]
			res.DiskUtilization[n] = moved / (opts.Topo.NodeProfile(n).DiskMBps * res.Makespan)
		}
	}
	return res, nil
}

// RunAssignment is a convenience wrapper: execute a planned static
// assignment.
func RunAssignment(opts Options, a *core.Assignment) (*Result, error) {
	return RunAssignmentContext(context.Background(), opts, a)
}

// RunAssignmentContext is RunAssignment under cooperative cancellation; see
// RunContext for the abort semantics.
func RunAssignmentContext(ctx context.Context, opts Options, a *core.Assignment) (*Result, error) {
	if err := a.Validate(opts.Problem); err != nil {
		return nil, err
	}
	if opts.Strategy == "" {
		opts.Strategy = "static"
	}
	return RunContext(ctx, opts, NewListSource(a.Lists))
}
