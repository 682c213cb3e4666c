// ParaView: the §V-B application experiment. A multi-block protein dataset
// (640 VTK XML blocks of 56 MB) is rendered in 10 time steps by parallel
// data servers; Opass is hooked into the reader's data-piece assignment,
// exactly where the paper patches vtkXMLCompositeDataReader.ReadXMLData.
//
// Run with:
//
//	go run ./examples/paraview           # paper scale: 64 nodes
//	go run ./examples/paraview -nodes 16 # reduced scale
package main

import (
	"flag"
	"fmt"
	"log"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/report"
	"opass/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 64, "data servers (one per node)")
	seed := flag.Int64("seed", 42, "placement seed")
	flag.Parse()

	blocks := 10 * *nodes // paper: 640 blocks for 64 nodes
	fmt.Printf("ParaView multi-block rendering: %d blocks x 56 MB, %d data servers, 10 steps\n\n",
		blocks, *nodes)

	stock := run(*nodes, blocks, *seed, core.RankStatic{})
	withOpass := run(*nodes, blocks, *seed, core.SingleData{Seed: *seed})

	ss, so := report.StatsOf(stock.CallTimes), report.StatsOf(withOpass.CallTimes)
	fmt.Printf("vtkFileSeriesReader call times (paper: 5.48s sd 1.339 -> 3.07s sd 0.316):\n")
	fmt.Printf("  stock ParaView : mean %.2fs  sd %.3f  min %.2fs  max %.2fs\n", ss.Mean, ss.StdDev, ss.Min, ss.Max)
	fmt.Printf("  with Opass     : mean %.2fs  sd %.3f  min %.2fs  max %.2fs\n", so.Mean, so.StdDev, so.Min, so.Max)
	fmt.Printf("\ntotal execution (paper: 167s -> 98s):\n")
	fmt.Printf("  stock ParaView : %.0f s\n", stock.TotalSeconds)
	fmt.Printf("  with Opass     : %.0f s\n", withOpass.TotalSeconds)
	fmt.Printf("\nper-step locality with Opass:")
	for _, step := range withOpass.Steps {
		fmt.Printf(" %.0f%%", 100*step.LocalFraction)
	}
	fmt.Println()
}

func run(nodes, blocks int, seed int64, assigner core.Assigner) *workload.PipelineResult {
	topo := cluster.New(nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: seed})
	ds, err := workload.CreateMultiBlock(fs, "/protein", blocks, 56)
	if err != nil {
		log.Fatal(err)
	}
	cfg := workload.DefaultPipeline(assigner)
	cfg.BlocksPerStep = nodes
	res, err := workload.RunPipeline(topo, fs, ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
