// Package globalsched implements a cluster-level job-mix scheduler above
// the per-job Opass matchers. §V-C1 of the paper concedes that co-running
// applications erode Opass's per-job wins: every job plans in isolation
// against an empty cluster and they all collide on the same DataNodes. The
// scheduler here follows the operation-level global balancing of OS4M
// (arXiv:1406.3901) and the key-distribution balancing of Fan et al.
// (arXiv:1401.0355): it tracks cumulative per-node service load across
// jobs, and plans each arriving job against the cluster's *residual*
// capacity by biasing the job's matcher — through the source-arc weights
// the flow network already supports (core.SingleData.NodeBias) and the
// proposal values of the matching planner (core.MultiData.NodeBias) — away
// from nodes that are hot from earlier jobs.
//
// The Balance knob trades locality against global balance: 0 keeps every
// job's isolated plan (maximum locality, no coordination), 1 plans purely
// by residual headroom (maximum balance, locality only as a tie-break in
// each matcher). The scheduler plugs into engine.RunJobsScheduled as its
// ClusterScheduler and reconciles its planned load estimates against the
// actual per-node served megabytes when each job drains.
package globalsched

import (
	"fmt"
	"slices"
	"sync"

	"opass/internal/core"
	"opass/internal/engine"
)

// minBias floors every node's bias factor so no node is ever fully
// excluded (a starving bias of 0 would be rejected by the planners).
const minBias = 0.05

// Options configures a Scheduler.
type Options struct {
	// Balance is the locality-vs-global-balance knob in [0, 1]: a node's
	// bias is (1-Balance) + Balance * (its residual headroom / the largest
	// residual headroom). 0 disables biasing entirely (isolated plans);
	// 1 makes a node with no headroom as unattractive as minBias allows.
	Balance float64
	// Seed drives the per-job matchers' repair randomness; job j plans
	// with Seed+j so jobs do not share coin flips.
	Seed int64
	// NodeRack, when non-nil, maps each node to its rack and upgrades both
	// levers to graded locality tiers: PickRemote prefers the least-served
	// holder *inside the reader's rack* before crossing an uplink (the
	// "nearest tier" refinement of OS4M's least-served rule), and each
	// job's matcher plans with the same rack map (core.Problem.NodeRack).
	// Nil keeps the rack-oblivious behavior.
	NodeRack []int
}

// Scheduler is a cluster-level job-mix scheduler. It implements
// engine.ClusterScheduler. Methods are safe for concurrent use, though the
// engine drives them sequentially in virtual-time order.
type Scheduler struct {
	mu      sync.Mutex
	nodes   int
	opts    Options
	load    []float64         // per-node service MB: finished jobs' actuals, running jobs' charges
	served  []float64         // live per-node serving, fed by ReadStarted
	planned map[int][]float64 // job -> planned charge, until reconciled
}

// New builds a scheduler for a cluster of numNodes storage nodes.
func New(numNodes int, opts Options) (*Scheduler, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("globalsched: cluster size %d must be positive", numNodes)
	}
	if opts.Balance < 0 || opts.Balance > 1 {
		return nil, fmt.Errorf("globalsched: balance %v must be in [0, 1]", opts.Balance)
	}
	return &Scheduler{
		nodes:   numNodes,
		opts:    opts,
		load:    make([]float64, numNodes),
		served:  make([]float64, numNodes),
		planned: make(map[int][]float64),
	}, nil
}

// JobArriving implements engine.ClusterScheduler: plan the arriving job
// against the residual cluster and hand the engine its task lists.
func (s *Scheduler) JobArriving(job int, spec engine.JobSpec, now float64) (engine.TaskSource, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := spec.Problem
	for _, node := range p.ProcNode {
		if node >= s.nodes {
			return nil, fmt.Errorf("globalsched: job %d process on node %d outside %d-node cluster", job, node, s.nodes)
		}
	}
	if p.NodeRack == nil && len(s.opts.NodeRack) > 0 {
		// Plan the job with the scheduler's rack map so its matcher grades
		// locality the same way the steerer does (no-op on single-rack
		// maps — core disables the tier there).
		p.NodeRack = s.opts.NodeRack
	}
	bias := s.biases(p.TotalMB(), p.ProcNode)
	var as core.Assigner
	if singleInput(p) {
		as = core.SingleData{Seed: s.opts.Seed + int64(job), NodeBias: bias}
	} else {
		as = core.MultiData{Seed: s.opts.Seed + int64(job), NodeBias: bias}
	}
	a, err := as.Assign(p)
	if err != nil {
		return nil, fmt.Errorf("globalsched: job %d: %w", job, err)
	}
	charge := plannedLoad(p, a, s.nodes)
	for n, mb := range charge {
		s.load[n] += mb
	}
	s.planned[job] = charge
	return engine.NewListSource(a.Lists), nil
}

// JobFinished implements engine.ClusterScheduler: replace the job's planned
// charge with the megabytes its reads actually pulled from each node.
func (s *Scheduler) JobFinished(job int, servedMB []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	charge, ok := s.planned[job]
	if !ok {
		return // not one of ours (or already reconciled)
	}
	delete(s.planned, job)
	for n := range s.load {
		s.load[n] -= charge[n]
		if n < len(servedMB) {
			s.load[n] += servedMB[n]
		}
		if s.load[n] < 0 {
			s.load[n] = 0
		}
	}
}

// PickRemote implements engine.ReadSteerer: a remote read is served by
// the least-served holder in the nearest tier. With a rack map (tiered
// steering) the reader's own rack is tried first — the least-served live
// rack-local holder wins before any cross-rack candidate is considered —
// and only a rack with no holder at all sends the read over an uplink.
// Within a tier the holder with the least live serving so far wins (ties
// broken by lowest node id — deterministic, and immediately
// self-correcting since the chosen holder's tally grows by the read).
// Ownership bias cannot place this load: a remote read under the default
// HDFS policy lands on a uniformly-random holder, which is exactly the
// serving variance §III-B quantifies and OS4M eliminates by deciding at
// the operation level.
func (s *Scheduler) PickRemote(reader int, holders []int, sizeMB float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	rr := s.rackOf(reader)
	best, bestSame := holders[0], -1
	for _, h := range holders {
		if h != best && h < len(s.served) && s.served[h] < s.served[best] {
			best = h
		}
		if rr >= 0 && s.rackOf(h) == rr &&
			(bestSame < 0 || (h < len(s.served) && s.served[h] < s.served[bestSame])) {
			bestSame = h
		}
	}
	if bestSame >= 0 {
		return bestSame
	}
	return best
}

// rackOf resolves a node's rack under Options.NodeRack, or -1 when the
// scheduler is rack-oblivious or the node is outside the map.
func (s *Scheduler) rackOf(node int) int {
	if len(s.opts.NodeRack) == 0 || node < 0 || node >= len(s.opts.NodeRack) {
		return -1
	}
	return s.opts.NodeRack[node]
}

// ReadStarted implements engine.ReadSteerer: keep the live per-node
// serving tally PickRemote selects against.
func (s *Scheduler) ReadStarted(node int, sizeMB float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if node >= 0 && node < len(s.served) {
		s.served[node] += sizeMB
	}
}

// biases computes the per-node bias for a job of jobMB total input: the
// residual headroom of node n against the ideal even split of the cluster's
// work including this job, normalized by the largest headroom among the
// nodes the job can actually place work on (its processes' nodes — an
// unreachable cold node elsewhere must not flatten the contrast the job's
// own matcher sees), blended with 1 by the Balance knob and floored at
// minBias. An idle cluster (or Balance 0) yields no bias at all.
func (s *Scheduler) biases(jobMB float64, procNodes []int) []float64 {
	if s.opts.Balance == 0 || jobMB <= 0 {
		return nil
	}
	var total float64
	for _, l := range s.load {
		total += l
	}
	if total == 0 {
		return nil // empty cluster: isolated plan is already optimal
	}
	ideal := (total + jobMB) / float64(s.nodes)
	resid := make([]float64, s.nodes)
	for n, l := range s.load {
		if r := ideal - l; r > 0 {
			resid[n] = r
		}
	}
	var maxResid float64
	for _, node := range procNodes {
		if resid[node] > maxResid {
			maxResid = resid[node]
		}
	}
	if maxResid == 0 {
		return nil // degenerate: every reachable node at or above ideal
	}
	bias := make([]float64, s.nodes)
	for n := range bias {
		b := (1 - s.opts.Balance) + s.opts.Balance*(resid[n]/maxResid)
		if b < minBias {
			b = minBias
		}
		if b > 1 {
			b = 1
		}
		bias[n] = b
	}
	return bias
}

// Load returns a copy of the cumulative per-node service load (MB):
// reconciled actuals for finished jobs plus planned charges for running
// ones.
func (s *Scheduler) Load() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.load...)
}

// singleInput reports whether every task reads exactly one chunk (the flow
// planner's domain; anything else goes to the matching planner).
func singleInput(p *core.Problem) bool {
	for i := range p.Tasks {
		if len(p.Tasks[i].Inputs) != 1 {
			return false
		}
	}
	return true
}

// plannedLoad estimates the per-node service megabytes of an assignment:
// an input co-located with its owner's node is served locally by that node
// (the engine's HDFS read policy always prefers the local replica), and a
// remote input is spread evenly over the chunk's replica holders (the
// engine picks one uniformly at random).
func plannedLoad(p *core.Problem, a *core.Assignment, nodes int) []float64 {
	charge := make([]float64, nodes)
	for t := range p.Tasks {
		owner := a.Owner[t]
		node := p.ProcNode[owner]
		for _, in := range p.Tasks[t].Inputs {
			replicas := p.FS.Replicas(in.Chunk)
			if slices.Contains(replicas, node) {
				charge[node] += in.SizeMB
				continue
			}
			if len(replicas) == 0 {
				continue
			}
			share := in.SizeMB / float64(len(replicas))
			for _, r := range replicas {
				if r < nodes {
					charge[r] += share
				}
			}
		}
	}
	return charge
}
