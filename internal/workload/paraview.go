package workload

// This file models the ParaView workflow of the paper's §V-B
// experiment: a VTK MultiBlock dataset whose meta-file indexes a series of
// data blocks, parallel data-server processes that each read their assigned
// blocks per rendering step (vtkXMLCompositeDataReader / ReadXMLData), and
// an off-screen rendering pipeline driven in pvbatch style. Opass is hooked
// exactly where the paper hooks it — at the point the reader assigns data
// pieces to data servers after processing the meta-file.
//
// The experiment's measured quantity is the time of each call into
// vtkFileSeriesReader: one block read (56 MB in the paper) plus XML
// parsing. Rendering adds a fixed per-step cost after the barrier.

import (
	"fmt"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
)

// BlockType enumerates the VTK XML dataset flavors a multi-block file may
// contain (§V-B lists these five).
type BlockType int

// The VTK data set types of a multi-block collection.
const (
	PolyData BlockType = iota
	ImageData
	RectilinearGrid
	UnstructuredGrid
	StructuredGrid
	numBlockTypes
)

// String implements fmt.Stringer.
func (b BlockType) String() string {
	switch b {
	case PolyData:
		return "PolyData"
	case ImageData:
		return "ImageData"
	case RectilinearGrid:
		return "RectilinearGrid"
	case UnstructuredGrid:
		return "UnstructuredGrid"
	case StructuredGrid:
		return "StructuredGrid"
	default:
		return fmt.Sprintf("BlockType(%d)", int(b))
	}
}

// Block is one sub-dataset of a multi-block collection, stored as one
// chunked file in the DFS.
type Block struct {
	Name   string
	Type   BlockType
	SizeMB float64
	Chunk  dfs.ChunkID
}

// MultiBlockDataset is the meta-file: an index over a series of VTK XML
// data files that together represent an assembly of parts.
type MultiBlockDataset struct {
	MetaFile string
	Blocks   []Block
}

// CreateMultiBlock writes numBlocks blocks of blockMB each into the file
// system and returns the meta-file index. Block types rotate through the
// five VTK flavors, mirroring the protein datasets the paper converts to
// multi-block time steps.
func CreateMultiBlock(fs *dfs.FileSystem, meta string, numBlocks int, blockMB float64) (*MultiBlockDataset, error) {
	if numBlocks <= 0 || blockMB <= 0 {
		return nil, fmt.Errorf("workload: invalid dataset %d blocks x %v MB", numBlocks, blockMB)
	}
	ds := &MultiBlockDataset{MetaFile: meta}
	for i := 0; i < numBlocks; i++ {
		name := fmt.Sprintf("%s/block%04d.vt%c", meta, i, "pirus"[i%int(numBlockTypes)])
		f, err := fs.CreateChunks(name, []float64{blockMB})
		if err != nil {
			return nil, err
		}
		ds.Blocks = append(ds.Blocks, Block{
			Name:   name,
			Type:   BlockType(i % int(numBlockTypes)),
			SizeMB: blockMB,
			Chunk:  f.Chunks[0],
		})
	}
	return ds, nil
}

// PipelineConfig drives a pvbatch-style run.
type PipelineConfig struct {
	// Steps is the number of rendering time steps; BlocksPerStep blocks are
	// consumed per step (64 of 640 in the paper).
	Steps         int
	BlocksPerStep int
	// ParseSeconds is the XML parse cost charged per block inside the
	// vtkFileSeriesReader call; RenderSeconds is the per-step rendering
	// cost after the read barrier (Mesa off-screen rendering).
	ParseSeconds  float64
	RenderSeconds float64
	// Assigner maps blocks to data servers each step. RankStatic reproduces
	// stock ParaView; core.SingleData reproduces Opass-in-ReadXMLData.
	Assigner core.Assigner
}

// StepResult captures one rendering step.
type StepResult struct {
	// CallTimes holds the vtkFileSeriesReader call time for every block
	// read this step (read + parse), in completion order.
	CallTimes []float64
	// ReadMakespan is the step's read phase duration (barrier time).
	ReadMakespan float64
	// LocalFraction is the fraction of bytes read locally this step.
	LocalFraction float64
}

// PipelineResult captures a full run.
type PipelineResult struct {
	Strategy string
	Steps    []StepResult
	// CallTimes concatenates all steps' reader call times — the Figure 12
	// trace.
	CallTimes []float64
	// TotalSeconds is the complete execution time including rendering.
	TotalSeconds float64
	// ServedMB accumulates per-node served bytes across steps.
	ServedMB []float64
}

// RunPipeline executes the pipeline over the dataset on the given cluster,
// reading with one data-server process per node.
func RunPipeline(topo *cluster.Topology, fs *dfs.FileSystem, ds *MultiBlockDataset, cfg PipelineConfig) (*PipelineResult, error) {
	if cfg.Steps <= 0 || cfg.BlocksPerStep <= 0 {
		return nil, fmt.Errorf("workload: invalid pipeline config %+v", cfg)
	}
	if cfg.BlocksPerStep > len(ds.Blocks) {
		return nil, fmt.Errorf("workload: step needs %d blocks but dataset has %d", cfg.BlocksPerStep, len(ds.Blocks))
	}
	if cfg.Assigner == nil {
		return nil, fmt.Errorf("workload: no assigner configured")
	}
	procNode := identityProcs(topo.NumNodes())
	res := &PipelineResult{
		Strategy: cfg.Assigner.Name(),
		ServedMB: make([]float64, topo.NumNodes()),
	}
	for step := 0; step < cfg.Steps; step++ {
		// ReadXMLData: select this step's blocks from the meta-file (the
		// paper selects 64 of the 640 datasets per rendering).
		lo := step * cfg.BlocksPerStep % len(ds.Blocks)
		blocks := make([]Block, 0, cfg.BlocksPerStep)
		for i := 0; i < cfg.BlocksPerStep; i++ {
			blocks = append(blocks, ds.Blocks[(lo+i)%len(ds.Blocks)])
		}
		prob := &core.Problem{ProcNode: procNode, FS: fs}
		for i, b := range blocks {
			prob.Tasks = append(prob.Tasks, core.Task{
				ID:     i,
				Inputs: []core.Input{{Chunk: b.Chunk, SizeMB: b.SizeMB}},
			})
		}
		assign, err := cfg.Assigner.Assign(prob)
		if err != nil {
			return nil, fmt.Errorf("workload: step %d: %w", step, err)
		}
		run, err := engine.RunAssignment(engine.Options{
			Topo:     topo,
			FS:       fs,
			Problem:  prob,
			Strategy: cfg.Assigner.Name(),
			ComputeTime: func(int) float64 {
				return cfg.ParseSeconds
			},
		}, assign)
		if err != nil {
			return nil, fmt.Errorf("workload: step %d: %w", step, err)
		}
		sr := StepResult{
			ReadMakespan:  run.Makespan,
			LocalFraction: run.LocalFraction(),
		}
		for _, rec := range run.Records {
			sr.CallTimes = append(sr.CallTimes, rec.Duration()+cfg.ParseSeconds)
		}
		res.Steps = append(res.Steps, sr)
		res.CallTimes = append(res.CallTimes, sr.CallTimes...)
		for n, mb := range run.ServedMB {
			res.ServedMB[n] += mb
		}
		res.TotalSeconds += run.Makespan + cfg.RenderSeconds
	}
	return res, nil
}

// DefaultPipeline returns the §V-B calibration: 56 MB reads, XML parse cost
// that puts an uncontended Opass call at about 3 s, and a per-step Mesa
// rendering cost; with 10 steps over 640 blocks on 64 nodes this lands near
// the paper's 98 s (Opass) vs 167 s (stock) totals.
func DefaultPipeline(assigner core.Assigner) PipelineConfig {
	return PipelineConfig{
		Steps:         10,
		BlocksPerStep: 64,
		ParseSeconds:  2.3,
		RenderSeconds: 5.5,
		Assigner:      assigner,
	}
}
