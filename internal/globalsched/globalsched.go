// Package globalsched implements a cluster-level job-mix scheduler above
// the per-job Opass matchers. §V-C1 of the paper concedes that co-running
// applications erode Opass's per-job wins: every job plans in isolation
// against an empty cluster and they all collide on the same DataNodes. The
// scheduler here follows the operation-level global balancing of OS4M
// (arXiv:1406.3901) and the key-distribution balancing of Fan et al.
// (arXiv:1401.0355): it tracks cumulative per-node service load across
// jobs, and plans each arriving job against the cluster's *residual*
// capacity by weighting the job's processes' quotas (core.OpassPlanner's
// weights, for single- and multi-input jobs alike) away from nodes that
// are hot from earlier jobs. As an engine.ReadSteerer it also picks
// the least-served holder for every remote read. The scheduler plugs into
// engine.RunJobsScheduled as its ClusterScheduler and reconciles its
// planned load estimates against the actual per-node served megabytes when
// each job drains.
package globalsched

import (
	"fmt"
	"slices"
	"sync"

	"opass/internal/core"
	"opass/internal/engine"
)

// Balance trades locality against global balance: a node's bias is
// (1-Balance) + Balance * (its residual headroom / the largest residual
// headroom). 0.5 was tuned on the jobmix study: enough quota contrast to
// spread ownership across a job's window, low enough that the ~1% locality
// loss does not cost aggregate throughput.
const Balance = 0.5

// minBias floors every node's bias so no node is ever fully excluded from
// a job's plan; it binds only for a Balance above 1-minBias.
const minBias = 0.05

// Scheduler is a cluster-level job-mix scheduler. It implements
// engine.ClusterScheduler. Methods are safe for concurrent use, though the
// engine drives them sequentially in virtual-time order.
type Scheduler struct {
	mu      sync.Mutex
	nodes   int
	seed    int64             // job j plans with seed+j so jobs do not share coin flips
	load    []float64         // per-node service MB: finished jobs' actuals, running jobs' charges
	served  []float64         // live per-node serving, fed by ReadStarted
	planned map[int][]float64 // job -> planned charge, until reconciled
}

// New builds a scheduler for a cluster of numNodes storage nodes; seed
// drives the per-job matchers' repair randomness.
func New(numNodes int, seed int64) (*Scheduler, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("globalsched: cluster size %d must be positive", numNodes)
	}
	return &Scheduler{
		nodes:   numNodes,
		seed:    seed,
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
	a, err := core.OpassPlanner(s.seed+int64(job), s.biases(p.TotalMB(), p.ProcNode), p.MultiInput()).Assign(p)
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
// the live holder with the least live serving so far (ties broken by the
// first holder listed — deterministic, and immediately self-correcting
// since the chosen holder's tally grows by the read).
// Ownership bias cannot place this load: a remote read under the default
// HDFS policy lands on a uniformly-random holder, which is exactly the
// serving variance §III-B quantifies and OS4M eliminates by deciding at
// the operation level.
func (s *Scheduler) PickRemote(reader int, holders []int, sizeMB float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := holders[0]
	for _, h := range holders {
		if h != best && h < len(s.served) && s.served[h] < s.served[best] {
			best = h
		}
	}
	return best
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

// biases computes the per-process weights for a job of jobMB total input
// whose process i runs on procNodes[i]: the bias of that process's node.
// A node's bias comes from its residual headroom against the ideal even
// split of the cluster's work including this job, normalized by the largest
// headroom among the job's own nodes (an unreachable cold node elsewhere
// must not flatten the contrast the job's matcher sees), blended with 1 by
// Balance and floored at minBias. An idle cluster, or one where every node
// of the job is at or above the ideal, yields nil: no weighting at all.
func (s *Scheduler) biases(jobMB float64, procNodes []int) []float64 {
	if jobMB <= 0 {
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
	resid := func(node int) float64 { return max(ideal-s.load[node], 0) }
	var maxResid float64
	for _, node := range procNodes {
		maxResid = max(maxResid, resid(node))
	}
	if maxResid == 0 {
		return nil
	}
	bias := make([]float64, len(procNodes))
	for i, node := range procNodes {
		bias[i] = max((1-Balance)+Balance*(resid(node)/maxResid), minBias)
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
