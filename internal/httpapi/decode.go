package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"slices"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
)

// Default request-decode limits. They are sized for the fleet scale the
// service targets — 10k processes and 1M tasks — while still bounding what
// a hostile payload can cost: the streaming decoder enforces the task and
// per-task input caps incrementally, so a request that blows a limit is
// rejected at the first offending element for O(1) memory beyond the bytes
// already read.
const (
	DefaultMaxBodyBytes     = 1 << 30
	DefaultMaxNodes         = 1 << 16
	DefaultMaxProcs         = 1 << 16
	DefaultMaxTasks         = 1 << 20
	DefaultMaxInputsPerTask = 1 << 10
)

// RequestLimits bounds what a single request may ask of the decoder and
// the planners. Zero fields mean the package defaults above; opassd exposes
// them as flags and tests inject small values to exercise the boundaries.
type RequestLimits struct {
	// BodyBytes caps the request body size (enforced by http.MaxBytesReader,
	// so an oversized body also poisons the connection).
	BodyBytes int64
	// Nodes caps the submitted cluster size.
	Nodes int
	// Procs caps the proc_nodes process list.
	Procs int
	// Tasks caps the task list.
	Tasks int
	// InputsPerTask caps any one task's input list.
	InputsPerTask int
}

func (l RequestLimits) withDefaults() RequestLimits {
	if l.BodyBytes <= 0 {
		l.BodyBytes = DefaultMaxBodyBytes
	}
	if l.Nodes <= 0 {
		l.Nodes = DefaultMaxNodes
	}
	if l.Procs <= 0 {
		l.Procs = DefaultMaxProcs
	}
	if l.Tasks <= 0 {
		l.Tasks = DefaultMaxTasks
	}
	if l.InputsPerTask <= 0 {
		l.InputsPerTask = DefaultMaxInputsPerTask
	}
	return l
}

// decodeFailure maps a decoder error to the right rejection: a limit the
// decoder enforced itself keeps its own bucket, a body-limit overrun becomes
// 413, everything else a generic 400.
func decodeFailure(err error) *apiError {
	var apiErr *apiError
	if errors.As(err, &apiErr) {
		return apiErr
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &apiError{
			status: http.StatusRequestEntityTooLarge, reason: "too_large",
			err: fmt.Errorf("request body exceeds %d bytes", tooBig.Limit),
		}
	}
	return badRequest("invalid", "bad request body: %w", err)
}

// The accepted keys of each object in the request grammar (the json tags of
// PlanRequest, TaskSpec, InputSpec, engine.NodeFailure and
// engine.NodeDegradation).
var (
	requestFields = []string{"nodes", "proc_nodes", "strategy", "seed", "tasks",
		"failures", "degradations", "replan", "repair", "repair_delay_seconds"}
	taskFields        = []string{"inputs"}
	inputFields       = []string{"size_mb", "replicas"}
	failureFields     = []string{"node", "at_seconds", "recover_at_seconds"}
	degradationFields = []string{"node", "at_seconds", "until_seconds", "disk_factor", "nic_factor"}
)

// decodeProblem parses and validates a request into a core.Problem whose
// placement is the submitted block layout itself. The body is scanned once
// through a pooled fixed-size window into pooled columnar accumulators, and
// the problem borrows them: its tasks, inputs and core.Layout (the read-only
// placement view the planners index directly) are the lexer's arrays. On
// success the request holds the lexer until the handler releases it, and
// the problem is valid exactly that long. No file system is built here:
// /v1/simulate, whose engine mutates placement, mirrors the layout into one
// itself (world.build).
func decodeProblem(w http.ResponseWriter, r *http.Request, lim RequestLimits) (*PlanRequest, *core.Problem, *apiError) {
	lx := newLexer(http.MaxBytesReader(w, r.Body, lim.BodyBytes))
	req, prob, apiErr := decodeRequest(lx, lim)
	if apiErr != nil {
		lx.release()
		return nil, nil, apiErr
	}
	req.arena = lx
	return req, prob, nil
}

// decodeRequest is decodeProblem over a caller-supplied lexer.
func decodeRequest(lx *lexer, lim RequestLimits) (*PlanRequest, *core.Problem, *apiError) {
	req := &PlanRequest{}
	acc := &lx.acc
	acc.reset()

	// Every cap is checked as its element arrives, so an over-limit request
	// is rejected at the first offending element whatever follows it.
	for seen := uint(0); lx.member(requestFields, &seen); {
		switch lx.name {
		case "nodes":
			req.Nodes = lx.int()
		case "strategy":
			req.Strategy = string(lx.str())
		case "seed":
			req.Seed = lx.int64()
		case "replan":
			req.Replan = lx.bool()
		case "repair":
			req.Repair = lx.bool()
		case "repair_delay_seconds":
			req.RepairDelaySeconds = lx.float()
		case "failures":
			for i := 0; lx.elem(i); i++ {
				var f engine.NodeFailure
				for seen := uint(0); lx.member(failureFields, &seen); {
					switch lx.name {
					case "node":
						f.Node = lx.int()
					case "at_seconds":
						f.At = lx.float()
					case "recover_at_seconds":
						f.RecoverAt = lx.float()
					}
				}
				req.Failures = append(req.Failures, f)
			}
		case "degradations":
			for i := 0; lx.elem(i); i++ {
				var d engine.NodeDegradation
				for seen := uint(0); lx.member(degradationFields, &seen); {
					switch lx.name {
					case "node":
						d.Node = lx.int()
					case "at_seconds":
						d.At = lx.float()
					case "until_seconds":
						d.Until = lx.float()
					case "disk_factor":
						d.DiskFactor = lx.float()
					case "nic_factor":
						d.NICFactor = lx.float()
					}
				}
				req.Degradations = append(req.Degradations, d)
			}
		case "proc_nodes":
			for i := 0; lx.elem(i); i++ {
				if i >= lim.Procs {
					lx.fail(badRequest("invalid",
						"proc_nodes lists more processes than the maximum %d", lim.Procs))
				}
				req.ProcNodes = append(req.ProcNodes, lx.int())
			}
		case "tasks":
			for ti := 0; lx.elem(ti); ti++ {
				if ti >= lim.Tasks {
					lx.fail(badRequest("too_many_tasks",
						"request lists more than maximum %d tasks", lim.Tasks))
				}
				if lx.compactTask(lim.InputsPerTask) {
					continue
				}
				ii := 0
				for seen := uint(0); lx.member(taskFields, &seen); { // "inputs" is the only field
					for ; lx.elem(ii); ii++ {
						if ii >= lim.InputsPerTask {
							lx.fail(badRequest("too_many_inputs",
								"task %d lists more than maximum %d inputs per task", ti, lim.InputsPerTask))
						}
						size := 0.0
						for seen := uint(0); lx.member(inputFields, &seen); {
							switch lx.name {
							case "size_mb":
								size = lx.float()
							case "replicas":
								acc.reps = lx.ints(acc.reps)
							}
						}
						if size <= 0 {
							lx.fail(badRequest("invalid", "task %d input %d: size_mb must be positive", ti, ii))
						}
						if len(acc.reps) == acc.repOff[len(acc.repOff)-1] {
							lx.fail(badRequest("invalid", "task %d input %d: replicas must be non-empty", ti, ii))
						}
						acc.inputs = append(acc.inputs, core.Input{Chunk: dfs.ChunkID(len(acc.inputs)), SizeMB: size})
						acc.repOff = append(acc.repOff, len(acc.reps))
					}
				}
				if ii == 0 {
					lx.fail(badRequest("invalid", "task %d has no inputs", ti))
				}
				acc.taskInputs = append(acc.taskInputs, int32(ii))
			}
		}
	}
	if lx.finish(); lx.err != nil {
		return nil, nil, decodeFailure(lx.err)
	}

	taskInputs, inputs, repOff, reps := acc.taskInputs, acc.inputs, acc.repOff, acc.reps
	numTasks := len(taskInputs)
	if req.Nodes <= 0 {
		return nil, nil, badRequest("invalid", "nodes must be positive")
	}
	if req.Nodes > lim.Nodes {
		return nil, nil, badRequest("invalid", "nodes %d exceeds maximum %d", req.Nodes, lim.Nodes)
	}
	if numTasks == 0 {
		return nil, nil, badRequest("invalid", "tasks must be non-empty")
	}
	if err := engine.ValidateFaults(req.Nodes, req.Failures, req.Degradations, req.RepairDelaySeconds); err != nil {
		return nil, nil, badRequest("invalid", "%w", err)
	}
	procNodes, apiErr := resolveProcNodes(req, lim)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	// Replica range/distinctness, deferred from the streaming loop because
	// JSON key order does not guarantee nodes arrives before tasks. Each row
	// is insertion-sorted in place as it is checked (the placement view
	// promises ascending rows, the order the dfs ledger keeps and every
	// fingerprint was defined over), so a replica already in the row's prefix
	// lands next to its twin: the neighbour test is the distinctness check.
	in := 0
	for ti := 0; ti < numTasks; ti++ {
		for ii := 0; ii < int(taskInputs[ti]); ii++ {
			row := reps[repOff[in]:repOff[in+1]]
			for k, rep := range row {
				if rep < 0 || rep >= req.Nodes {
					return nil, nil, badRequest("invalid", "task %d input %d: replica node %d outside cluster", ti, ii, rep)
				}
				for ; k > 0 && row[k-1] > rep; k-- {
					row[k-1], row[k] = rep, row[k-1]
				}
				if k > 0 && row[k-1] == rep {
					return nil, nil, badRequest("invalid", "task %d input %d: duplicate replica node %d", ti, ii, rep)
				}
			}
			in++
		}
	}
	// The problem borrows the accumulators; the tasks are carved over the
	// inputs only now, when the input array has stopped growing.
	tasks := slices.Grow(acc.tasks, numTasks)
	in = 0
	for ti, k := range taskInputs {
		tasks = append(tasks, core.Task{ID: ti, Inputs: inputs[in : in+int(k) : in+int(k)]})
		in += int(k)
	}
	acc.tasks = tasks
	prob := &core.Problem{Tasks: tasks, ProcNode: procNodes, FS: &core.Layout{RepOff: repOff, Reps: reps}}
	if err := prob.Validate(); err != nil {
		return nil, nil, badRequest("invalid", "%w", err)
	}
	req.weight = int64(numTasks + len(inputs))
	return req, prob, nil
}

// world is what /v1/simulate runs against: the simulated cluster and the
// in-memory file system mirroring the decoded layout over it. The engine
// crashes nodes and repairs chunks, which the read-only layout cannot
// express; /v1/plan never builds one. A world rides on the request's arena
// and is rebuilt in place by each request that borrows it.
type world struct {
	topo *cluster.Topology
	fs   *dfs.FileSystem
}

// build makes w the Marmot cluster of the given size with one bulk-created
// file holding prob's chunks in order, so chunk ids are equal by
// construction: the decoder numbers one chunk per input in task/input order
// and sizes it as the input, so sizes and rows are read off the problem.
func (w *world) build(nodes int, prob *core.Problem) error {
	if w.topo == nil {
		w.topo = cluster.New(nodes, cluster.Marmot())
		w.fs = dfs.New(w.topo, dfs.Config{Replication: 1})
	} else {
		w.topo.Reset(nodes, cluster.Marmot())
		w.fs.Reset()
	}
	_, err := w.fs.CreateChunksFrom("/layout/tasks", func(each func(float64, []int)) {
		for i := range prob.Tasks {
			for _, in := range prob.Tasks[i].Inputs {
				each(in.SizeMB, prob.FS.Replicas(in.Chunk))
			}
		}
	})
	return err
}

// resolveProcNodes validates the submitted process list (or synthesizes
// the one-per-node default) with specific messages — the shape errors must
// not fall through to the planner's generic Validate.
func resolveProcNodes(req *PlanRequest, lim RequestLimits) ([]int, *apiError) {
	if len(req.ProcNodes) > lim.Procs {
		return nil, badRequest("invalid",
			"proc_nodes lists %d processes, exceeding maximum %d", len(req.ProcNodes), lim.Procs)
	}
	procNodes := req.ProcNodes
	if len(procNodes) == 0 {
		procNodes = make([]int, req.Nodes)
		for i := range procNodes {
			procNodes[i] = i
		}
	}
	for i, n := range procNodes {
		if n < 0 || n >= req.Nodes {
			return nil, badRequest("invalid", "proc_nodes[%d] = %d outside [0,%d)", i, n, req.Nodes)
		}
	}
	return procNodes, nil
}
