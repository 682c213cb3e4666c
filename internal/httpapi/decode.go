package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"opass/internal/core"
	"opass/internal/dfs"
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

// layoutView is the minimal cluster view for a submitted layout.
type layoutView struct{ n int }

func (v layoutView) NumNodes() int  { return v.n }
func (v layoutView) RackOf(int) int { return 0 }

// decodeFailure maps a decoder error to the right rejection: body-limit
// overruns become 413, everything else a generic 400.
func decodeFailure(err error) *apiError {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &apiError{
			status: http.StatusRequestEntityTooLarge, reason: "too_large",
			err: fmt.Errorf("request body exceeds %d bytes", tooBig.Limit),
		}
	}
	return badRequest("invalid", "bad request body: %w", err)
}

// decodeProblem parses and validates a request into a core.Problem backed
// by an in-memory file system that mirrors the submitted block layout. It
// walks the body with a token-level decoder: tasks are consumed one object
// at a time into compact columnar accumulators instead of a materialized
// []TaskSpec, so peak decode memory tracks the problem's resident size, and
// the mirror FS is built with one bulk CreateChunksReplicated call (one
// chunk block, one epoch bump) instead of per-input namenode operations.
func decodeProblem(w http.ResponseWriter, r *http.Request, lim RequestLimits) (*PlanRequest, *core.Problem, *apiError) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, lim.BodyBytes))
	dec.DisallowUnknownFields()

	req := &PlanRequest{}
	var (
		taskInputs []int32   // inputs per task, in task order
		sizes      []float64 // per-input sizes, task-major
		repOff     []int     // input i's replicas are reps[repOff[i]:repOff[i+1]]
		reps       []int
	)
	repOff = append(repOff, 0)

	tok, err := dec.Token()
	if err != nil {
		return nil, nil, decodeFailure(err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, nil, badRequest("invalid", "bad request body: expected a JSON object")
	}
	sawTasks := false
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, nil, decodeFailure(err)
		}
		key, _ := keyTok.(string)
		switch key {
		case "nodes":
			err = dec.Decode(&req.Nodes)
		case "strategy":
			err = dec.Decode(&req.Strategy)
		case "seed":
			err = dec.Decode(&req.Seed)
		case "replan":
			err = dec.Decode(&req.Replan)
		case "repair":
			err = dec.Decode(&req.Repair)
		case "repair_delay_seconds":
			err = dec.Decode(&req.RepairDelaySeconds)
		case "failures":
			err = dec.Decode(&req.Failures)
		case "degradations":
			err = dec.Decode(&req.Degradations)
		case "proc_nodes":
			if apiErr := decodeProcNodesStream(dec, req, lim); apiErr != nil {
				return nil, nil, apiErr
			}
		case "tasks":
			if sawTasks {
				return nil, nil, badRequest("invalid", "bad request body: duplicate tasks field")
			}
			sawTasks = true
			var apiErr *apiError
			taskInputs, sizes, repOff, reps, apiErr = decodeTasksStream(dec, lim, taskInputs, sizes, repOff, reps)
			if apiErr != nil {
				return nil, nil, apiErr
			}
		default:
			return nil, nil, badRequest("invalid", "bad request body: unknown field %q", key)
		}
		if err != nil {
			return nil, nil, decodeFailure(err)
		}
	}
	if _, err := dec.Token(); err != nil { // closing brace
		return nil, nil, decodeFailure(err)
	}

	numTasks := len(taskInputs)
	numInputs := len(sizes)
	if req.Nodes <= 0 {
		return nil, nil, badRequest("invalid", "nodes must be positive")
	}
	if req.Nodes > lim.Nodes {
		return nil, nil, badRequest("invalid", "nodes %d exceeds maximum %d", req.Nodes, lim.Nodes)
	}
	if numTasks == 0 {
		return nil, nil, badRequest("invalid", "tasks must be non-empty")
	}
	if apiErr := validateFaults(req); apiErr != nil {
		return nil, nil, apiErr
	}
	procNodes, apiErr := resolveProcNodes(req, lim)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	// Replica range/distinctness, deferred from the streaming loop because
	// JSON key order does not guarantee nodes arrives before tasks. The
	// stamp array replaces a per-input set: stamp[n] == i marks node n as
	// already seen for input i.
	stamp := make([]int, req.Nodes)
	for i := range stamp {
		stamp[i] = -1
	}
	in := 0
	for ti := 0; ti < numTasks; ti++ {
		for ii := 0; ii < int(taskInputs[ti]); ii++ {
			for _, rep := range reps[repOff[in]:repOff[in+1]] {
				if rep < 0 || rep >= req.Nodes {
					return nil, nil, badRequest("invalid", "task %d input %d: replica node %d outside cluster", ti, ii, rep)
				}
				if stamp[rep] == in {
					return nil, nil, badRequest("invalid", "task %d input %d: duplicate replica node %d", ti, ii, rep)
				}
				stamp[rep] = in
			}
			in++
		}
	}
	// Mirror the layout into an in-memory FS: every input is one chunk of
	// one bulk-created file, sharing the flattened replica arena.
	replicaLists := make([][]int, numInputs)
	for i := range replicaLists {
		replicaLists[i] = reps[repOff[i]:repOff[i+1]]
	}
	fs := dfs.New(layoutView{req.Nodes}, dfs.Config{Replication: 1})
	f, err := fs.CreateChunksReplicated("/layout/tasks", sizes, replicaLists)
	if err != nil {
		return nil, nil, &apiError{status: http.StatusInternalServerError, reason: "internal", err: err}
	}
	prob := &core.Problem{ProcNode: procNodes, FS: fs}
	prob.Tasks = make([]core.Task, numTasks)
	backing := make([]core.Input, numInputs)
	in = 0
	for ti := range prob.Tasks {
		k := int(taskInputs[ti])
		ins := backing[in : in+k : in+k]
		for j := range ins {
			ins[j] = core.Input{Chunk: f.Chunks[in+j], SizeMB: sizes[in+j]}
		}
		prob.Tasks[ti] = core.Task{ID: ti, Inputs: ins}
		in += k
	}
	if err := prob.Validate(); err != nil {
		return nil, nil, badRequest("invalid", "%w", err)
	}
	req.weight = int64(numTasks + numInputs)
	return req, prob, nil
}

// decodeProcNodesStream consumes the proc_nodes array one element at a
// time, rejecting at the first process past the cap.
func decodeProcNodesStream(dec *json.Decoder, req *PlanRequest, lim RequestLimits) *apiError {
	tok, err := dec.Token()
	if err != nil {
		return decodeFailure(err)
	}
	if tok == nil { // JSON null
		return nil
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return badRequest("invalid", "bad request body: proc_nodes must be an array")
	}
	for dec.More() {
		if len(req.ProcNodes) >= lim.Procs {
			return badRequest("invalid",
				"proc_nodes lists more processes than the maximum %d", lim.Procs)
		}
		var n int
		if err := dec.Decode(&n); err != nil {
			return decodeFailure(err)
		}
		req.ProcNodes = append(req.ProcNodes, n)
	}
	if _, err := dec.Token(); err != nil { // closing bracket
		return decodeFailure(err)
	}
	return nil
}

// decodeTasksStream consumes the tasks array one task at a time into the
// columnar accumulators, enforcing the task and per-task input caps as
// each element arrives. One TaskSpec is reused across iterations; its
// contents are copied out before the next Decode overwrites them.
func decodeTasksStream(dec *json.Decoder, lim RequestLimits, taskInputs []int32, sizes []float64, repOff, reps []int) ([]int32, []float64, []int, []int, *apiError) {
	fail := func(apiErr *apiError) ([]int32, []float64, []int, []int, *apiError) {
		return taskInputs, sizes, repOff, reps, apiErr
	}
	tok, err := dec.Token()
	if err != nil {
		return fail(decodeFailure(err))
	}
	if tok == nil { // JSON null: same as absent
		return taskInputs, sizes, repOff, reps, nil
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fail(badRequest("invalid", "bad request body: tasks must be an array"))
	}
	var task TaskSpec
	for dec.More() {
		ti := len(taskInputs)
		if ti >= lim.Tasks {
			return fail(badRequest("too_many_tasks",
				"request lists more than maximum %d tasks", lim.Tasks))
		}
		task.Inputs = task.Inputs[:0]
		if err := dec.Decode(&task); err != nil {
			return fail(decodeFailure(err))
		}
		if len(task.Inputs) > lim.InputsPerTask {
			return fail(badRequest("too_many_inputs",
				"task %d lists %d inputs, exceeding maximum %d per task", ti, len(task.Inputs), lim.InputsPerTask))
		}
		if len(task.Inputs) == 0 {
			return fail(badRequest("invalid", "task %d has no inputs", ti))
		}
		for ii, in := range task.Inputs {
			if in.SizeMB <= 0 {
				return fail(badRequest("invalid", "task %d input %d: size_mb must be positive", ti, ii))
			}
			if len(in.Replicas) == 0 {
				return fail(badRequest("invalid", "task %d input %d: replicas must be non-empty", ti, ii))
			}
			sizes = append(sizes, in.SizeMB)
			reps = append(reps, in.Replicas...)
			repOff = append(repOff, len(reps))
		}
		taskInputs = append(taskInputs, int32(len(task.Inputs)))
	}
	if _, err := dec.Token(); err != nil { // closing bracket
		return fail(decodeFailure(err))
	}
	return taskInputs, sizes, repOff, reps, nil
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

// validateFaults rejects malformed fault specs with specific messages
// before any planning happens — the engine re-validates, but its errors
// would surface as a 500 after the planner already ran.
func validateFaults(req *PlanRequest) *apiError {
	for i, f := range req.Failures {
		if f.Node < 0 || f.Node >= req.Nodes {
			return badRequest("invalid", "failures[%d]: node %d outside cluster", i, f.Node)
		}
		if f.AtSeconds < 0 {
			return badRequest("invalid", "failures[%d]: at_seconds must be non-negative", i)
		}
		if f.RecoverAtSeconds != 0 && f.RecoverAtSeconds <= f.AtSeconds {
			return badRequest("invalid", "failures[%d]: recover_at_seconds must be after at_seconds", i)
		}
	}
	for i, d := range req.Degradations {
		if d.Node < 0 || d.Node >= req.Nodes {
			return badRequest("invalid", "degradations[%d]: node %d outside cluster", i, d.Node)
		}
		if d.AtSeconds < 0 {
			return badRequest("invalid", "degradations[%d]: at_seconds must be non-negative", i)
		}
		if d.UntilSeconds != 0 && d.UntilSeconds <= d.AtSeconds {
			return badRequest("invalid", "degradations[%d]: until_seconds must be after at_seconds", i)
		}
		if !(d.DiskFactor > 0 && d.DiskFactor <= 1) || !(d.NICFactor > 0 && d.NICFactor <= 1) {
			return badRequest("invalid", "degradations[%d]: disk_factor and nic_factor must be in (0, 1]", i)
		}
	}
	if req.RepairDelaySeconds < 0 {
		return badRequest("invalid", "repair_delay_seconds must be non-negative")
	}
	return nil
}
