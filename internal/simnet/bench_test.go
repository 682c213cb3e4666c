package simnet

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// BenchmarkNetworkStep drains a cluster-shaped network the way the engine
// does — one sequential reader per node, each completion starting that
// reader's next read — and reports the simulator's cost per event. all-local
// gives every flow its own disk (one progressive-filling round per flow, the
// simulate-faults shape); 30%-remote routes reads through the source's tx and
// the reader's rx, so flows share bottlenecks.
func BenchmarkNetworkStep(b *testing.B) {
	for _, nodes := range []int{128, 1024} {
		for _, remote := range []float64{0, 0.3} {
			name := "all-local"
			if remote > 0 {
				name = "30pct-remote"
			}
			b.Run(name+"/nodes="+strconv.Itoa(nodes), func(b *testing.B) {
				var events int64
				for i := 0; i < b.N; i++ {
					events += drainCluster(nodes, 10, remote, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
				// Allocations are counted in one more, untimed drain, so
				// no timed iteration pays for reading them.
				b.StopTimer()
				var mallocs uint64
				b.ReportMetric(float64(mallocs)/float64(drainCluster(nodes, 10, remote, &mallocs)), "allocs/event")
			})
		}
	}
}

// drainCluster builds a nodes-node network (Marmot-like disk, tx and rx per
// node), runs reads chained reads per node to completion and returns the
// number of events stepped. A non-nil mallocs receives the allocations made
// while stepping them: each flow's handle is its reader's node and every
// path is built in one scratch slice, so those are the simulator's own. It
// uses only Network's public methods.
func drainCluster(nodes, reads int, remoteFrac float64, mallocs *uint64) int64 {
	rng := rand.New(rand.NewSource(1))
	n := New()
	disk, tx, rx := make([]ResourceID, nodes), make([]ResourceID, nodes), make([]ResourceID, nodes)
	for i := 0; i < nodes; i++ {
		disk[i] = n.AddResource("disk", 75, 0.25)
		tx[i] = n.AddResource("tx", 117, 0)
		rx[i] = n.AddResource("rx", 117, 0)
	}
	left := make([]int, nodes)
	path := make([]ResourceID, 0, 3) // Start copies it
	read := func(node int) {
		left[node]--
		path = append(path[:0], disk[node])
		if rng.Float64() < remoteFrac {
			src := (node + 1 + rng.Intn(nodes-1)) % nodes
			path = append(path[:0], disk[src], tx[src], rx[node])
		}
		// Sizes vary a little so completions do not all share one instant.
		n.Start(path, 60+8*rng.Float64(), 0.012, node)
	}
	n.OnComplete(func(now float64, f *Flow) {
		if node := f.Handle; left[node] > 0 {
			read(node)
		}
	})
	for node := range left {
		left[node] = reads
		read(node)
	}
	var ms0, ms1 runtime.MemStats
	if mallocs != nil {
		runtime.ReadMemStats(&ms0)
	}
	var events int64
	for n.Step() {
		events++
	}
	if mallocs != nil {
		runtime.ReadMemStats(&ms1)
		*mallocs = ms1.Mallocs - ms0.Mallocs
	}
	return events + 1
}
