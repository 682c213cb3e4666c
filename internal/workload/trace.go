package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
)

// This file builds workloads from external trace files, so users can replay
// their own job mixes instead of the paper's synthetic datasets. The format
// is one CSV row per task:
//
//	task_id, compute_s, input_mb[, input_mb...]
//
// Task IDs must be dense from 0; each input becomes a chunk placed
// uniformly at random, like HDFS. Comments start with #.

// TraceTask is one parsed row.
type TraceTask struct {
	ID       int
	ComputeS float64
	InputsMB []float64
}

// ParseTrace reads the CSV task trace from r.
func ParseTrace(r io.Reader) ([]TraceTask, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // rows vary in input count
	cr.Comment = '#'
	cr.TrimLeadingSpace = true
	var tasks []TraceTask
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace: %w", err)
		}
		if len(row) < 3 {
			return nil, fmt.Errorf("workload: trace row %d needs task_id, compute_s and at least one input", len(tasks))
		}
		id, err := strconv.Atoi(strings.TrimSpace(row[0]))
		if err != nil {
			return nil, fmt.Errorf("workload: trace row %d: bad task id %q", len(tasks), row[0])
		}
		if id != len(tasks) {
			return nil, fmt.Errorf("workload: trace row %d: task ids must be dense (got %d)", len(tasks), id)
		}
		comp, err := strconv.ParseFloat(strings.TrimSpace(row[1]), 64)
		if err != nil || comp < 0 {
			return nil, fmt.Errorf("workload: trace row %d: bad compute %q", id, row[1])
		}
		t := TraceTask{ID: id, ComputeS: comp}
		for _, f := range row[2:] {
			mb, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || mb <= 0 {
				return nil, fmt.Errorf("workload: trace row %d: bad input size %q", id, f)
			}
			t.InputsMB = append(t.InputsMB, mb)
		}
		tasks = append(tasks, t)
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return tasks, nil
}

// TraceSpec materializes a parsed trace on a fresh cluster.
type TraceSpec struct {
	Nodes int
	Tasks []TraceTask
	Seed  int64
}

// Build materializes the trace workload: each input becomes one chunk, and
// Compute returns each task's traced compute time.
func (s TraceSpec) Build() (*Rig, error) {
	if s.Nodes <= 0 {
		return nil, fmt.Errorf("workload: trace spec needs nodes")
	}
	if len(s.Tasks) == 0 {
		return nil, fmt.Errorf("workload: trace spec has no tasks")
	}
	topo := cluster.New(s.Nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: s.Seed})
	prob := &core.Problem{ProcNode: identityProcs(s.Nodes), FS: fs}
	compute := make([]float64, len(s.Tasks))
	for _, tt := range s.Tasks {
		task := core.Task{ID: tt.ID}
		for i, mb := range tt.InputsMB {
			f, err := fs.CreateChunks(fmt.Sprintf("/trace/t%d/i%d", tt.ID, i), []float64{mb})
			if err != nil {
				return nil, err
			}
			task.Inputs = append(task.Inputs, core.Input{Chunk: f.Chunks[0], SizeMB: mb})
		}
		prob.Tasks = append(prob.Tasks, task)
		compute[tt.ID] = tt.ComputeS
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	rig := &Rig{Topo: topo, FS: fs, Prob: prob}
	hasCompute := false
	for _, c := range compute {
		if c > 0 {
			hasCompute = true
			break
		}
	}
	if hasCompute {
		rig.Compute = func(task int) float64 {
			if task < 0 || task >= len(compute) {
				panic(fmt.Sprintf("workload: compute for unknown task %d", task))
			}
			return compute[task]
		}
	}
	return rig, nil
}
