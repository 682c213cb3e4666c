// Genomics: parallel multi-data access, the §IV-C scenario. Comparing the
// genome sequences of humans, mice and chimpanzees requires each comparison
// task to read three inputs that live in three different datasets — and, on
// HDFS, usually on three different nodes. Opass assigns the tasks, equal
// counts per process, so that as much of their data as possible is read
// where it lives — the problem of Algorithm 1, solved exactly.
//
// Run with:
//
//	go run ./examples/genomics
package main

import (
	"fmt"
	"log"

	"opass"
)

const (
	nodes        = 16
	tasksPerProc = 10
)

func main() {
	fmt.Println("Cross-species genome comparison on a", nodes, "node cluster")
	fmt.Printf("each task reads 30 MB human + 20 MB mouse + 10 MB chimp sequence data\n\n")

	baseline := simulate(opass.StrategyRank)
	optimized := simulate(opass.StrategyOpass)

	fmt.Println()
	fmt.Println(opass.Compare(baseline, optimized))
	fmt.Println("with three inputs per task a full matching is impossible — part of")
	fmt.Println("every task's data must travel — so the improvement is real but")
	fmt.Println("smaller than in the single-input experiment, exactly as §V-A2 notes.")
}

func simulate(strategy opass.Strategy) *opass.Report {
	cluster, err := opass.NewClusterWithOptions(nodes, opass.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	n := nodes * tasksPerProc
	// Three species datasets, one fragment per comparison task each.
	species := []struct {
		file string
		mb   float64
	}{
		{"/genomes/human", 30},
		{"/genomes/mouse", 20},
		{"/genomes/chimp", 10},
	}
	for _, sp := range species {
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = sp.mb
		}
		if err := cluster.StorePieces(sp.file, sizes); err != nil {
			log.Fatal(err)
		}
	}
	// Task i compares fragment i of all three species.
	tasks := make([]opass.TaskSpec, n)
	for i := range tasks {
		for _, sp := range species {
			tasks[i].Inputs = append(tasks[i].Inputs, opass.PieceRef{File: sp.file, Index: i})
		}
	}
	plan, err := cluster.PlanMultiData(strategy, tasks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-7s planned locality: %5.1f%% of task input bytes co-located\n",
		strategy, 100*plan.Locality())
	report, err := cluster.Run(plan)
	if err != nil {
		log.Fatal(err)
	}
	return report
}
