package experiments

import (
	"fmt"
	"strings"

	"opass/internal/core"
	"opass/internal/engine"
	"opass/internal/workload"
)

// FaultResult compares a healthy run against one with DataNode crashes.
type FaultResult struct {
	Healthy StrategyResult
	Faulty  StrategyResult
	// Crashes lists the injected failures; Retries counts reads that had to
	// fail over to another replica.
	Crashes []engine.NodeFailure
	Retries int
}

// FaultTolerance runs the single-data Opass workload while two DataNodes
// crash mid-job — an extension validating that the r-way replication HDFS
// provides "for the sake of reliability" (§I) composes with Opass's
// locality plan: the job completes, reads fail over, and only the crashed
// nodes' processes lose locality.
func FaultTolerance(cfg Config) (*FaultResult, error) {
	nodes := cfg.scale(64)
	crashes := []engine.NodeFailure{
		{Node: 1, At: 1.0},
		{Node: nodes / 2, At: 3.0},
	}
	rig := workload.SingleSpec{Nodes: nodes, ChunksPerProc: 10, Seed: cfg.Seed}
	opass := core.SingleData{Seed: cfg.Seed}
	runs, err := runArms(
		arm{label: "opass", rig: rig.Build, plan: opass},
		arm{label: "opass-2-crashes", rig: rig.Build, plan: opass, tweak: func(o *engine.Options) { o.Failures = crashes }},
	)
	if err != nil {
		return nil, err
	}
	return &FaultResult{Healthy: runs[0], Faulty: runs[1], Crashes: crashes, Retries: runs[1].run.Retries}, nil
}

// Render prints the fault-tolerance comparison.
func (r *FaultResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — fault tolerance: %d DataNode crashes mid-job (%d nodes)\n",
		len(r.Crashes), r.Healthy.Nodes)
	for _, c := range r.Crashes {
		fmt.Fprintf(&b, "  crash: node %d at t=%.1fs\n", c.Node, c.At)
	}
	fmt.Fprintf(&b, "  healthy: makespan %6.1fs  local %5.1f%%  reads %d\n",
		r.Healthy.Makespan, 100*r.Healthy.Local, len(r.Healthy.IOTimes))
	fmt.Fprintf(&b, "  faulty : makespan %6.1fs  local %5.1f%%  reads %d (%d failed over)\n",
		r.Faulty.Makespan, 100*r.Faulty.Local, len(r.Faulty.IOTimes), r.Retries)
	return b.String()
}

// Claims states the extension's point: replication composes with the plan.
func (r *FaultResult) Claims() []Claim {
	return []Claim{{
		Name:      "faults",
		Statement: "jobs survive DataNode crashes via read failover",
		Holds:     len(r.Faulty.IOTimes) >= len(r.Healthy.IOTimes),
		Detail:    fmt.Sprintf("%d reads completed, %d failed over", len(r.Faulty.IOTimes), r.Retries),
	}}
}

// Headline is the study's line in opass report.
func (r *FaultResult) Headline() string {
	return fmt.Sprintf("Fault tolerance: with %d DataNode crashes mid-job, all %d reads complete (%d failed over).",
		len(r.Crashes), len(r.Faulty.IOTimes), r.Retries)
}
