package experiments

import (
	"fmt"
	"strings"

	"opass/internal/core"
	"opass/internal/workload"
)

// DataSweepResult is the dataset-size sweep at one cluster size.
type DataSweepResult struct {
	Nodes int
	Rows  []PairedRow[int] // X is chunks per process
}

// DataSizeSweep tests the paper's introductory claim that "the I/O
// performance could be further degraded as the size of the cluster and the
// data increase" — Figure 7 sweeps the cluster; this sweeps the dataset at
// a fixed 64-node cluster. The baseline's *worst* read stretches as more
// requests pile onto the same hotspots, while Opass's per-read time stays
// at the uncontended local read regardless of dataset size.
func DataSizeSweep(cfg Config) (*DataSweepResult, error) {
	nodes := cfg.scale(64)
	rows, err := sweepPaired([]int{5, 10, 20, 40}, func(perProc int) rigBuilder {
		return workload.SingleSpec{Nodes: nodes, ChunksPerProc: perProc, Seed: cfg.Seed + int64(perProc)}.Build
	}, core.SingleData{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &DataSweepResult{Nodes: nodes, Rows: rows}, nil
}

// Render prints the dataset-size sweep.
func (res *DataSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — dataset size sweep at %d nodes (chunks per process)\n", res.Nodes)
	fmt.Fprintf(&b, "%10s | %-32s | %-32s\n", "chunks/pp", "without Opass (avg/max s, util)", "with Opass (avg/max s, util)")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%10d | %8.2f %8.2f %10.0f%% | %8.2f %8.2f %10.0f%%\n",
			r.X,
			r.Baseline.IO.Mean, r.Baseline.IO.Max, 100*r.Baseline.MeanDiskUtilization,
			r.Opass.IO.Mean, r.Opass.IO.Max, 100*r.Opass.MeanDiskUtilization)
	}
	return b.String()
}
