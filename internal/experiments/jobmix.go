package experiments

import (
	"context"
	"fmt"
	"strings"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
	"opass/internal/globalsched"
	"opass/internal/report"
)

// The jobmix experiment quantifies ROADMAP item 1: a staggered mix of
// tenant jobs, each owning a window of the cluster's nodes, planned either
// in isolation (every job pretends the cluster is empty — §V-C1's collision
// scenario) or by the cluster-level scheduler (each arrival planned against
// residual node capacity). Because each tenant's processes sit on an
// overlapping window of nodes, isolated plans pile every job's local reads
// onto the contended overlap while the windowless nodes idle; the scheduler
// trades some of that locality for global service balance.

// Tuning constants for the jobmix workload shape.
const (
	// jobMixJobs is the number of staggered tenant jobs.
	jobMixJobs = 6
	// jobMixChunksPerProc sizes each job's dataset (64 MB chunks).
	jobMixChunksPerProc = 6
	// jobMixStaggerFrac staggers arrivals by this fraction of one job's
	// uncontended read time, so the mix overlaps heavily but not fully.
	jobMixStaggerFrac = 0.4
)

// JobMixSide aggregates one side (isolated or scheduled) of the study.
type JobMixSide struct {
	Label string `json:"label"`
	// ThroughputMBps is total megabytes served over the time from the first
	// arrival to the last completion.
	ThroughputMBps float64 `json:"throughput_mbps"`
	// JobMakespans are per-job completion-minus-arrival times (seconds).
	JobMakespans []float64 `json:"job_makespans_s"`
	// MakespanMean / MakespanMax summarize the per-job makespans; Max is
	// the tail a tenant in the mix can observe.
	MakespanMean float64 `json:"makespan_mean_s"`
	MakespanMax  float64 `json:"makespan_max_s"`
	// ServedMB is the cluster-wide per-node service load summed over jobs;
	// SpreadMB is its max minus min and MaxMinRatio its max over min
	// (0 when some node served nothing).
	ServedMB    []float64 `json:"-"`
	SpreadMB    float64   `json:"spread_mb"`
	MaxMinRatio float64   `json:"maxmin_ratio"`
	// Fairness is Jain's index over the summed per-node load.
	Fairness float64 `json:"fairness"`
	// Local is the fraction of bytes read from the reader's own disk.
	Local float64 `json:"local_fraction"`
}

// JobMixResult contrasts isolated per-job plans with globally-scheduled
// plans over the same placement and arrival pattern.
type JobMixResult struct {
	Nodes   int     `json:"nodes"`
	Jobs    int     `json:"jobs"`
	Window  int     `json:"window"`
	Balance float64 `json:"balance"`
	StagerS float64 `json:"stagger_s"`

	Isolated  JobMixSide `json:"isolated"`
	Scheduled JobMixSide `json:"scheduled"`

	// SpreadGain is Isolated.SpreadMB / Scheduled.SpreadMB (higher is
	// better for the scheduler); ThroughputRatio is
	// Scheduled.ThroughputMBps / Isolated.ThroughputMBps.
	SpreadGain      float64 `json:"spread_gain"`
	ThroughputRatio float64 `json:"throughput_ratio"`
}

// jobMixRig is one freshly built mix: shared topology/fs plus per-job
// problems and arrival times. Both sides build their own from the same seed
// so the placement is identical (paired comparison).
type jobMixRig struct {
	topo     *cluster.Topology
	fs       *dfs.FileSystem
	probs    []*core.Problem
	arrivals []float64
}

func buildJobMixRig(nodes, jobs int, seed int64) (*jobMixRig, error) {
	topo := cluster.New(nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: seed})
	window := JobMixWindow(nodes)
	stride := max(1, nodes/jobs)
	stagger := jobMixStaggerFrac * float64(jobMixChunksPerProc) * topo.UncontendedLocalRead(64)
	rig := &jobMixRig{topo: topo, fs: fs}
	for j := 0; j < jobs; j++ {
		name := fmt.Sprintf("/job%d", j)
		if _, err := fs.Create(name, float64(window*jobMixChunksPerProc)*64); err != nil {
			return nil, err
		}
		procs := make([]int, window)
		for i := range procs {
			procs[i] = (j*stride + i) % nodes
		}
		prob, err := core.SingleDataProblem(fs, []string{name}, procs)
		if err != nil {
			return nil, err
		}
		rig.probs = append(rig.probs, prob)
		rig.arrivals = append(rig.arrivals, float64(j)*stagger)
	}
	return rig, nil
}

// JobMixWindow reports the per-job process window used at this node count.
func JobMixWindow(nodes int) int { return max(2, nodes/2) }

// runJobMix builds the mix from seed and runs it to completion. With a nil
// sched every job is planned against an empty cluster before the run;
// otherwise sched plans each arrival against the residual load.
func runJobMix(nodes int, seed int64, label string, sched engine.ClusterScheduler) (*jobMixRig, []*engine.Result, error) {
	rig, err := buildJobMixRig(nodes, jobMixJobs, seed)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]engine.JobSpec, jobMixJobs)
	for j, prob := range rig.probs {
		specs[j] = engine.JobSpec{Problem: prob, Strategy: label, StartAt: rig.arrivals[j]}
		if sched == nil {
			a, err := (core.SingleData{Seed: seed + int64(j)}).Assign(prob)
			if err != nil {
				return nil, nil, err
			}
			specs[j].Source = engine.NewListSource(a.Lists)
		}
	}
	results, err := engine.RunJobsScheduled(context.Background(), rig.topo, rig.fs, specs, sched)
	return rig, results, err
}

// JobMix runs the isolated-vs-scheduled study: the same placement and
// arrival pattern, planned per job in isolation and then by the
// cluster-level scheduler.
func JobMix(cfg Config) (*JobMixResult, error) {
	nodes := cfg.scale(64)
	out := &JobMixResult{
		Nodes:   nodes,
		Jobs:    jobMixJobs,
		Window:  JobMixWindow(nodes),
		Balance: globalsched.Balance,
	}
	iso, isoRes, err := runJobMix(nodes, cfg.Seed, "isolated", nil)
	if err != nil {
		return nil, err
	}
	out.StagerS = iso.arrivals[1] - iso.arrivals[0]
	out.Isolated = jobMixSide("isolated", nodes, isoRes)

	gs, err := globalsched.New(nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	_, schRes, err := runJobMix(nodes, cfg.Seed, "globalsched", gs)
	if err != nil {
		return nil, err
	}
	out.Scheduled = jobMixSide("globalsched", nodes, schRes)

	if out.Scheduled.SpreadMB > 0 {
		out.SpreadGain = out.Isolated.SpreadMB / out.Scheduled.SpreadMB
	}
	if out.Isolated.ThroughputMBps > 0 {
		out.ThroughputRatio = out.Scheduled.ThroughputMBps / out.Isolated.ThroughputMBps
	}
	return out, nil
}

// jobMixSide folds per-job results into one side's aggregates.
func jobMixSide(label string, nodes int, results []*engine.Result) JobMixSide {
	side := JobMixSide{Label: label, ServedMB: make([]float64, nodes)}
	var endTime, totalMB, localMB float64
	for _, res := range results {
		side.JobMakespans = append(side.JobMakespans, res.JobMakespan())
		endTime = max(endTime, res.Makespan)
		for n, mb := range res.ServedMB {
			side.ServedMB[n] += mb
		}
		for _, rec := range res.Records {
			totalMB += rec.SizeMB
			if rec.Local {
				localMB += rec.SizeMB
			}
		}
	}
	makespans := report.StatsOf(side.JobMakespans)
	side.MakespanMean, side.MakespanMax = makespans.Mean, makespans.Max
	if endTime > 0 {
		side.ThroughputMBps = totalMB / endTime
	}
	if totalMB > 0 {
		side.Local = localMB / totalMB
	}
	served := report.StatsOf(side.ServedMB)
	side.SpreadMB = served.Max - served.Min
	if served.Min > 0 {
		side.MaxMinRatio = served.Max / served.Min
	}
	side.Fairness = report.JainIndex(side.ServedMB)
	return side
}

// Render prints the study.
func (r *JobMixResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — job-mix scheduling (ROADMAP 1): %d staggered jobs on %d nodes (window %d, stagger %.1fs, balance %.2f)\n",
		r.Jobs, r.Nodes, r.Window, r.StagerS, r.Balance)
	row := func(s JobMixSide) {
		fmt.Fprintf(&b, "  %-12s: throughput %7.1f MB/s  job makespan mean %6.1fs max %6.1fs  served/node spread %6.0f MB (max/min %.2f, jain %.3f)  local %5.1f%%\n",
			s.Label, s.ThroughputMBps, s.MakespanMean, s.MakespanMax, s.SpreadMB, s.MaxMinRatio, s.Fairness, 100*s.Local)
	}
	row(r.Isolated)
	row(r.Scheduled)
	fmt.Fprintf(&b, "  global scheduling: %.2fx tighter service spread at %.2fx throughput\n",
		r.SpreadGain, r.ThroughputRatio)
	return b.String()
}

// BenchKey is the study's key in BENCH_planner.json.
func (r *JobMixResult) BenchKey() string { return "jobmix" }
