package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"opass/internal/cluster"
	"opass/internal/simnet"
)

// This file is the engine's one event loop. RunContext drives it with the
// single job it builds from Options and a source; RunJobsScheduled with N
// jobs, their arrival timers and the ClusterScheduler hooks. Everything
// cluster-wide — fault, repair, degradation and advisor timers, read
// steering, replanning — comes from Options; everything that belongs to one
// application lives in its job.

// pendingKind distinguishes the flow types the engine launches.
type pendingKind int

const (
	kindRead pendingKind = iota
	kindCompute
	// The kinds from here on are aux timers, not work (see sim.auxTimers).
	kindArrival
	kindFailure
	kindRecovery
	kindRepair
	kindDegrade
	kindRestore
	kindAdvisor
)

type pending struct {
	kind pendingKind
	job  int        // kindRead / kindCompute / kindArrival
	proc int        // kindRead / kindCompute
	node int        // kindFailure/kindRecovery/kindRepair/kindRestore: the node
	idx  int        // kindFailure: Failures index; kindDegrade: Degradations index
	rec  ReadRecord // valid for kindRead
}

// job is one application's state inside the loop.
type job struct {
	spec          JobSpec
	computeFactor func(proc int) float64 // Options.ComputeFactor; nil means 1.0
	poller        PollingSource          // set when the job is released
	// replannable is the job's source when the run replans and the source
	// is a ListSource; since is the file system's epoch at release and after
	// every replan, so the delta replanner finds the chunks touched since.
	replannable *ListSource
	since       uint64
	procs       []procState
	finished    []bool
	curReads    []int // reads of this job each node is serving right now
	waiting     []int // processes told to wait, in the order they were told
	remaining   int   // processes not yet finished
	res         *Result
}

// procState is a process's progress: its task and how many inputs it read.
type procState struct{ task, input int }

func newJob(spec JobSpec, nodes int) *job {
	procs := spec.Problem.NumProcs()
	reads := 0 // every input is read to completion exactly once
	for i := range spec.Problem.Tasks {
		reads += len(spec.Problem.Tasks[i].Inputs)
	}
	return &job{
		spec:      spec,
		procs:     make([]procState, procs),
		finished:  make([]bool, procs),
		curReads:  make([]int, nodes),
		remaining: procs,
		res: &Result{
			Strategy:            spec.Strategy,
			Arrival:             spec.StartAt,
			ServedMB:            make([]float64, nodes),
			ProcFinish:          make([]float64, procs),
			PeakConcurrentReads: make([]int, nodes),
			Records:             make([]ReadRecord, 0, reads),
		},
	}
}

// abortRun carries a fatal simulation error (e.g. data loss) out of the
// completion callbacks.
type abortRun struct{ err error }

// detachWaiting hands back the current waiting list as an independent batch
// and leaves the live list empty WITHOUT sharing the backing array: while
// the batch is re-polled, processes that wait again are appended to the live
// list, and an aliased `w = w[:0]` would write those appends into the very
// slots the batch iteration is still reading.
func detachWaiting(w *[]int) []int {
	ws := *w
	*w = nil
	return ws
}

// asPoller lifts a TaskSource into a PollingSource.
func asPoller(src TaskSource) PollingSource {
	if p, ok := src.(PollingSource); ok {
		return p
	}
	return pollAdapter{src}
}

// stepBudget is the number of simulation events the drain loop advances
// between cancellation checks: a cancelled context stops consuming CPU
// within at most this many events.
const stepBudget = 64

// sim is one run of the loop.
type sim struct {
	opts  *Options
	sched ClusterScheduler // nil outside RunJobsScheduled
	net   *simnet.Network
	start float64
	jobs  []*job

	inflight map[simnet.FlowID]pending
	// auxTimers counts the pending arrival, fault, repair, degradation and
	// advisor timers. They are simnet flows, but they are not work: counting
	// them as active would keep "stalled" false while every worker sits in a
	// waiting list, letting a PollWait-answering source park the whole
	// cluster until a far-future timer fires.
	auxTimers    int
	totalWaiting int // waiting processes across all jobs
	remaining    int // unfinished processes across all jobs

	failed       map[int]bool
	avoidFailed  func(node int) bool
	degraded     map[int]float64 // node -> disk factor currently in effect
	remoteFactor float64         // StorageDeadWeight of the run's topology
	holders      []int           // scratch for the steered replica pick

	// Cluster-wide outcomes, copied into every job's Result at the end.
	failedNodes, recoveredNodes  []int
	repairedChunks, advisorTicks int
}

// simulate runs jobs to completion on opts.Topo / opts.FS and fills each
// job's Result; the per-job fields of opts (Problem, ComputeTime,
// ComputeFactor, Strategy) are not read here. On error every flow the run
// started has been cancelled and the network is idle.
func simulate(ctx context.Context, opts *Options, jobs []*job, sched ClusterScheduler) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("engine: run aborted before start: %w", err)
	}
	net := opts.Topo.Net()
	if net.Active() != 0 {
		return fmt.Errorf("engine: network busy with %d flows at run start", net.Active())
	}
	s := &sim{
		opts:         opts,
		sched:        sched,
		net:          net,
		start:        net.Now(),
		jobs:         jobs,
		failed:       make(map[int]bool),
		degraded:     make(map[int]float64),
		remoteFactor: StorageDeadWeight(opts.Topo),
	}
	s.avoidFailed = func(node int) bool { return s.failed[node] }
	for _, rt := range jobs {
		s.remaining += rt.remaining
	}
	// Each process has one read or compute phase in flight at a time.
	s.inflight = make(map[simnet.FlowID]pending, s.remaining)

	net.OnComplete(func(now float64, f *simnet.Flow) {
		pd, ok := s.inflight[f.ID]
		if !ok {
			panic(fmt.Sprintf("engine: completion for unknown flow %d (%s)", f.ID, f.Label))
		}
		delete(s.inflight, f.ID)
		if pd.kind >= kindArrival {
			s.auxTimers--
		}
		switch pd.kind {
		case kindRead:
			s.readDone(pd, now)
		case kindCompute:
			s.startTask(pd.job, pd.proc)
		case kindArrival:
			s.release(pd.job, now-s.start)
		case kindFailure:
			s.nodeFailed(pd)
		case kindRecovery:
			// The DataNode process restarted; its replicas serve again. The
			// per-read replica pick re-captures locality on its own, and a
			// replan rebalances the surviving backlog shares.
			delete(s.failed, pd.node)
			s.recoveredNodes = append(s.recoveredNodes, pd.node)
			s.maybeReplan(pd.node)
		case kindRepair:
			// The namenode's replication monitor caught up: under-replicated
			// chunks regain copies on live nodes, changing the placement
			// truth — exactly when a replan can win back locality.
			s.repairedChunks += opts.FS.ReReplicate()
			s.maybeReplan(pd.node)
		case kindDegrade:
			d := opts.Degradations[pd.idx]
			s.degraded[d.Node] = d.DiskFactor
			opts.Topo.DegradeNode(d.Node, d.DiskFactor, d.NICFactor)
			s.maybeReplan(d.Node)
		case kindRestore:
			delete(s.degraded, pd.node)
			opts.Topo.DegradeNode(pd.node, 1, 1)
			s.maybeReplan(pd.node)
		case kindAdvisor:
			// Periodic placement-advisory pass: the advisor reads the access
			// telemetry and may move replicas; a change makes a full replan
			// of the pending backlog worthwhile (the new copies are placement
			// truth the in-flight lists know nothing about).
			s.advisorTicks++
			if opts.Advisor.Tick(now) {
				s.maybeReplan(-1)
			}
			if s.remaining > 0 {
				s.scheduleAdvisor()
			}
		}
		// A completion may free up a task a waiting process was hoping for
		// (or leave the cluster stalled, forcing the source's hand).
		s.retryWaiting()
	})
	defer net.OnComplete(nil)
	// Whatever happens below, hand the shared topology back healthy: any
	// degradation still in effect at exit (Until == 0, or an aborted run) is
	// lifted so sequential rounds see nominal bandwidth again.
	defer func() {
		for node := range s.degraded {
			opts.Topo.DegradeNode(node, 1, 1)
		}
	}()

	if err := s.drain(ctx); err != nil {
		// Tear down whatever the aborted run left in flight (reads, compute
		// and aux timers): sequential rounds and retried requests reuse the
		// same network and clock.
		for id := range s.inflight {
			net.Cancel(id)
		}
		return err
	}
	for _, rt := range jobs {
		res := rt.res
		// The makespan is when the last process finished — not net.Now(),
		// which may include aux timers that fired after the job drained.
		for _, fin := range res.ProcFinish {
			res.Makespan = max(res.Makespan, fin)
		}
		res.FailedNodes, res.RecoveredNodes = s.failedNodes, s.recoveredNodes
		res.RepairedChunks, res.AdvisorTicks = s.repairedChunks, s.advisorTicks
	}
	return nil
}

// drain arms the timers, releases the jobs that arrive at time zero and
// advances the simulation until every process has finished, in budgeted
// slices instead of an uninterruptible net.Run(): between slices a cancelled
// context aborts the run.
func (s *sim) drain(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(abortRun)
			if !ok {
				panic(r)
			}
			err = ab.err
		}
	}()
	for i, fail := range s.opts.Failures {
		// A zero delay would complete before any read begins; nudge it to
		// "immediately after start" semantics either way.
		s.startAux(fail.At+1e-9, fmt.Sprintf("fail/node%d", fail.Node), pending{kind: kindFailure, node: fail.Node, idx: i})
		if fail.RecoverAt > 0 {
			s.startAux(fail.RecoverAt+1e-9, fmt.Sprintf("recover/node%d", fail.Node), pending{kind: kindRecovery, node: fail.Node})
		}
	}
	for i, d := range s.opts.Degradations {
		s.startAux(d.At+1e-9, fmt.Sprintf("degrade/node%d", d.Node), pending{kind: kindDegrade, node: d.Node, idx: i})
		if d.Until > 0 {
			s.startAux(d.Until+1e-9, fmt.Sprintf("restore/node%d", d.Node), pending{kind: kindRestore, node: d.Node})
		}
	}
	if s.opts.Advisor != nil {
		s.scheduleAdvisor()
	}
	for j, rt := range s.jobs {
		if rt.spec.StartAt > 0 {
			s.startAux(rt.spec.StartAt, fmt.Sprintf("j%d/arrival", j), pending{kind: kindArrival, job: j})
			continue
		}
		s.release(j, 0)
	}
	s.retryWaiting()
	for {
		more := s.net.StepN(stepBudget)
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("engine: run aborted after %d events: %w", s.net.Completed(), err)
		}
		if more {
			continue
		}
		if s.totalWaiting == 0 {
			return nil
		}
		s.retryWaiting() // the cluster is stalled: sources are forced to answer
	}
}

// startAux arms a timer that is bookkeeping rather than work.
func (s *sim) startAux(delay float64, label string, pd pending) {
	s.inflight[s.net.Start(nil, 0, delay, label)] = pd
	s.auxTimers++
}

// scheduleAdvisor arms the next advisory pass.
func (s *sim) scheduleAdvisor() {
	s.startAux(s.opts.AdvisorInterval, fmt.Sprintf("advisor/t%d", s.advisorTicks), pending{kind: kindAdvisor})
}

func (s *sim) activeWork() int { return s.net.Active() - s.auxTimers }

// release fires at the job's arrival: consult the scheduler (which may plan
// the job against the residual cluster and hand back a fresh source), then
// start every process.
func (s *sim) release(j int, now float64) {
	rt := s.jobs[j]
	src := rt.spec.Source
	if s.sched != nil {
		planned, err := s.sched.JobArriving(j, rt.spec, now)
		if err != nil {
			panic(abortRun{fmt.Errorf("engine: scheduling job %d: %w", j, err)})
		}
		if planned != nil {
			src = planned
		}
	}
	if src == nil {
		panic(abortRun{fmt.Errorf("engine: job %d has no task source at arrival", j)})
	}
	rt.poller = asPoller(src)
	if rs, ok := src.(*ListSource); ok && s.opts.Replan {
		rt.replannable, rt.since = rs, s.opts.FS.Epoch()
	}
	for proc := range rt.procs {
		s.startTask(j, proc)
	}
}

// startInput issues the read of the process's next input.
func (s *sim) startInput(j, proc int) {
	rt := s.jobs[j]
	p, fs, topo := rt.spec.Problem, s.opts.FS, s.opts.Topo
	st := rt.procs[proc]
	task := &p.Tasks[st.task]
	// Rotate the input order by task ID: concurrent tasks then touch the
	// datasets in staggered order instead of all processes slamming dataset
	// A, then B, then C in lockstep — an artifact of a fixed input order.
	in := task.Inputs[(st.input+st.task)%len(task.Inputs)]
	node := p.ProcNode[proc]
	avoid := s.avoidFailed
	if len(s.failed) == 0 {
		avoid = nil // the common case: the picker then filters (and allocates) nothing
	}
	srcNode, local, err := fs.PickReplicaAvoiding(in.Chunk, node, uint64(rt.res.Retries), avoid)
	if err != nil {
		panic(abortRun{fmt.Errorf("engine: process %d task %d: %w (all replica holders crashed)", proc, st.task, err)})
	}
	if bal := s.opts.Balancer; bal != nil {
		if !local {
			// The steerer chooses among the live holders (the reader is
			// never one here: a live co-located replica would have made the
			// pick local, and a crashed one is not a holder).
			s.holders = s.holders[:0]
			for _, r := range fs.Chunk(in.Chunk).Replicas {
				if r != node && !s.failed[r] {
					s.holders = append(s.holders, r)
				}
			}
			srcNode = bal.PickRemote(node, s.holders, in.SizeMB)
			if !slices.Contains(s.holders, srcNode) {
				panic(abortRun{fmt.Errorf("engine: balancer picked node %d, not a live holder of chunk %d", srcNode, in.Chunk)})
			}
		}
		bal.ReadStarted(srcNode, in.SizeMB)
	}
	fs.RecordRead(in.Chunk, node, local, in.SizeMB, s.net.Now())
	rt.curReads[srcNode]++
	rt.res.PeakConcurrentReads[srcNode] = max(rt.res.PeakConcurrentReads[srcNode], rt.curReads[srcNode])
	// One label per kind, not per flow: what a flow is doing for whom is in
	// its pending record.
	id := s.net.Start(topo.ReadPath(srcNode, node), in.SizeMB, topo.ReadLatency(srcNode), "read")
	s.inflight[id] = pending{kind: kindRead, job: j, proc: proc, rec: ReadRecord{
		Proc: proc, Task: st.task, Chunk: in.Chunk,
		SrcNode: srcNode, DstNode: node, Local: local,
		SizeMB: in.SizeMB, Start: s.net.Now() - s.start,
	}}
}

// readDone records a finished read and moves its process on: to the task's
// next input, its compute phase, or its next task.
func (s *sim) readDone(pd pending, now float64) {
	rt := s.jobs[pd.job]
	res, topo := rt.res, s.opts.Topo
	rec := pd.rec
	rec.End = now - s.start
	rt.curReads[rec.SrcNode]--
	res.Records = append(res.Records, rec)
	res.ServedMB[rec.SrcNode] += rec.SizeMB
	if !rec.Local {
		if topo.RackOf(rec.SrcNode) == topo.RackOf(rec.DstNode) {
			res.RackLocalMB += rec.SizeMB
		} else {
			res.CrossRackMB += rec.SizeMB
		}
	}
	st := &rt.procs[pd.proc]
	st.input++
	if st.input < len(rt.spec.Problem.Tasks[st.task].Inputs) {
		s.startInput(pd.job, pd.proc)
		return
	}
	// All inputs read: compute phase, if any.
	if rt.spec.ComputeTime != nil {
		ct := rt.spec.ComputeTime(st.task)
		if rt.computeFactor != nil {
			ct *= rt.computeFactor(pd.proc)
		}
		if ct > 0 {
			id := s.net.Start(nil, 0, ct, "compute")
			s.inflight[id] = pending{kind: kindCompute, job: pd.job, proc: pd.proc}
			return
		}
	}
	s.startTask(pd.job, pd.proc)
}

// nodeFailed handles a DataNode crash: the node's storage service is gone,
// future picks avoid it and every read it was serving restarts against
// another replica.
func (s *sim) nodeFailed(pd pending) {
	opts := s.opts
	s.failed[pd.node] = true
	s.failedNodes = append(s.failedNodes, pd.node)
	if opts.Failures[pd.idx].RecoverAt == 0 && (opts.Repair || opts.Replan) {
		// A permanent loss with the recovery subsystem on: record the crash
		// in the namenode so repair and replanning see the true placement.
		// (Transient outages never touch metadata — the node returns with
		// its data intact.)
		if _, _, err := opts.FS.Crash(pd.node); err != nil {
			panic(abortRun{fmt.Errorf("engine: crash of node %d: %w", pd.node, err)})
		}
		if opts.Repair {
			s.startAux(opts.RepairDelay+1e-9, fmt.Sprintf("repair/node%d", pd.node), pending{kind: kindRepair, node: pd.node})
		}
	}
	var victims []simnet.FlowID
	for id, infl := range s.inflight {
		if infl.kind == kindRead && infl.rec.SrcNode == pd.node {
			victims = append(victims, id)
		}
	}
	// Deterministic retry order.
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, id := range victims {
		if s.net.Cancel(id) < 0 {
			// Completed in the same event batch: its handler will run
			// normally, no retry needed.
			continue
		}
		victim := s.inflight[id]
		delete(s.inflight, id)
		rt := s.jobs[victim.job]
		rt.curReads[pd.node]--
		rt.res.Retries++
		s.startInput(victim.job, victim.proc) // re-picks avoiding failed nodes
	}
	s.maybeReplan(pd.node)
}

// StorageDeadWeight is the replanning weight of a process whose node lost its
// storage service. A failure takes down the DataNode, not the process: it
// keeps computing but every read it issues goes remote, so its share is
// discounted by the remote/local read-time ratio of a 64 MB chunk rather
// than zeroed — zeroing it would idle a live worker (and, for a transient
// outage, drain its list and terminate it before the node comes back).
func StorageDeadWeight(topo *cluster.Topology) float64 {
	return topo.UncontendedLocalRead(64) / topo.UncontendedRemoteRead(64)
}

// nodeWeight is a process's current "load capacity" (§IV-D) for replanning:
// remoteFactor on a storage-dead node, the disk factor on a degraded one.
func (s *sim) nodeWeight(node int) float64 {
	if s.failed[node] {
		return s.remoteFactor
	}
	if f, ok := s.degraded[node]; ok {
		return f
	}
	return 1
}

// maybeReplan re-matches every replannable job's backlog after a placement
// event at eventNode (negative: no attribution, re-match everything).
func (s *sim) maybeReplan(eventNode int) {
	if s.opts.ReplanFull {
		eventNode = -1
	}
	for _, rt := range s.jobs {
		if rt.replannable == nil {
			continue
		}
		p, res := rt.spec.Problem, rt.res
		spliced, rematched, err := ReplanBacklogDelta(p, s.opts.FS, rt.replannable, rt.finished, s.nodeWeight,
			s.opts.ReplanSeed+int64(res.Replans), eventNode, rt.since)
		if err != nil {
			panic(abortRun{err})
		}
		if spliced {
			res.Replans++
			if eventNode >= 0 {
				res.DeltaReplannedTasks += rematched
			}
		}
		// Advance even without a splice: every epoch change up to this event
		// either re-matched a pending task just now or concerns a task that
		// is no longer pending, so older deltas need not be re-examined.
		rt.since = s.opts.FS.Epoch()
	}
}

// startTask asks the job's source for the idle process's next task.
func (s *sim) startTask(j, proc int) {
	s.poll(j, proc, s.activeWork() == 0 && s.totalWaiting == 0)
}

// poll puts one answer of the job's source into effect and reports whether
// the process made progress — got a task or finished — rather than joining
// the waiting list. stalled tells the source no work is in flight anywhere,
// which obliges it to answer (delay scheduling's timeout).
func (s *sim) poll(j, proc int, stalled bool) bool {
	rt := s.jobs[j]
	task, state := rt.poller.Poll(proc, stalled)
	switch state {
	case PollDone:
		rt.res.ProcFinish[proc] = s.net.Now() - s.start
		rt.finished[proc] = true
		rt.remaining--
		s.remaining--
		if rt.remaining == 0 && s.sched != nil {
			s.sched.JobFinished(j, append([]float64(nil), rt.res.ServedMB...))
		}
	case PollWait:
		if stalled {
			panic("engine: polling source answered wait while the cluster is stalled")
		}
		rt.waiting = append(rt.waiting, proc)
		s.totalWaiting++
		return false
	default:
		if task < 0 || task >= len(rt.spec.Problem.Tasks) {
			panic(fmt.Sprintf("engine: job %d source produced invalid task %d", j, task))
		}
		rt.procs[proc] = procState{task: task}
		rt.res.TasksRun++
		s.startInput(j, proc)
	}
	return true
}

// retryWaiting re-polls every waiting process, job by job, repeating while
// any poll makes progress; without progress the waiters sleep until the next
// completion event.
func (s *sim) retryWaiting() {
	for s.totalWaiting > 0 {
		stalled := s.activeWork() == 0
		progress := false
		for j, rt := range s.jobs {
			// Detach before iterating: the polls below append re-waiting
			// processes, which would otherwise land in the backing array
			// this loop is still reading.
			ws := detachWaiting(&rt.waiting)
			s.totalWaiting -= len(ws)
			for _, proc := range ws {
				if s.poll(j, proc, stalled) {
					progress = true
				}
			}
		}
		if !progress {
			return
		}
	}
}
