package workload

import (
	"strings"
	"testing"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/report"
)

func setup(t testing.TB, nodes, blocks int, seed int64) (*cluster.Topology, *dfs.FileSystem, *MultiBlockDataset) {
	t.Helper()
	topo := cluster.New(nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: seed})
	ds, err := CreateMultiBlock(fs, "/protein", blocks, 56)
	if err != nil {
		t.Fatal(err)
	}
	return topo, fs, ds
}

func TestCreateDatasetShape(t *testing.T) {
	_, fs, ds := setup(t, 8, 40, 1)
	if len(ds.Blocks) != 40 {
		t.Fatalf("blocks = %d, want 40", len(ds.Blocks))
	}
	// Types rotate through all five VTK flavors with matching extensions.
	seen := map[BlockType]bool{}
	for i, b := range ds.Blocks {
		seen[b.Type] = true
		if b.Type != BlockType(i%5) {
			t.Fatalf("block %d type %v, want rotation", i, b.Type)
		}
		wantExt := map[BlockType]string{
			PolyData: ".vtp", ImageData: ".vti", RectilinearGrid: ".vtr",
			UnstructuredGrid: ".vtu", StructuredGrid: ".vts",
		}[b.Type]
		if !strings.HasSuffix(b.Name, wantExt) {
			t.Fatalf("block %q extension mismatch for %v", b.Name, b.Type)
		}
		c := fs.Chunk(b.Chunk)
		if c.SizeMB != 56 {
			t.Fatalf("chunk size %v, want 56", c.SizeMB)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("saw %d block types, want 5", len(seen))
	}
}

func TestCreateDatasetValidation(t *testing.T) {
	topo := cluster.New(4, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: 2})
	if _, err := CreateMultiBlock(fs, "/x", 0, 56); err == nil {
		t.Fatal("zero blocks must fail")
	}
	if _, err := CreateMultiBlock(fs, "/y", 5, -1); err == nil {
		t.Fatal("negative size must fail")
	}
}

func TestPipelineRunsAllSteps(t *testing.T) {
	topo, fs, ds := setup(t, 8, 40, 3)
	cfg := PipelineConfig{
		Steps:         5,
		BlocksPerStep: 8,
		ParseSeconds:  1.0,
		RenderSeconds: 2.0,
		Assigner:      core.RankStatic{},
	}
	res, err := RunPipeline(topo, fs, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 5 {
		t.Fatalf("steps = %d, want 5", len(res.Steps))
	}
	if len(res.CallTimes) != 40 {
		t.Fatalf("reader calls = %d, want 40", len(res.CallTimes))
	}
	// Every call includes the parse cost.
	for _, c := range res.CallTimes {
		if c < 1.0 {
			t.Fatalf("call time %v below parse cost", c)
		}
	}
	// Total includes per-step render.
	var reads float64
	for _, s := range res.Steps {
		reads += s.ReadMakespan
	}
	if got, want := res.TotalSeconds, reads+5*2.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("total = %v, want %v", got, want)
	}
}

func TestPipelineOpassBeatsStock(t *testing.T) {
	// The §V-B claim at reduced scale: Opass lowers both the mean and the
	// standard deviation of reader call times, and the total run time.
	topoA, fsA, dsA := setup(t, 16, 80, 4)
	stock, err := RunPipeline(topoA, fsA, dsA, PipelineConfig{
		Steps: 5, BlocksPerStep: 16, ParseSeconds: 2.3, RenderSeconds: 6.5,
		Assigner: core.RankStatic{},
	})
	if err != nil {
		t.Fatal(err)
	}
	topoB, fsB, dsB := setup(t, 16, 80, 4)
	opass, err := RunPipeline(topoB, fsB, dsB, PipelineConfig{
		Steps: 5, BlocksPerStep: 16, ParseSeconds: 2.3, RenderSeconds: 6.5,
		Assigner: core.SingleData{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := report.StatsOf(stock.CallTimes)
	so := report.StatsOf(opass.CallTimes)
	if so.Mean >= ss.Mean {
		t.Fatalf("opass mean call %v >= stock %v", so.Mean, ss.Mean)
	}
	if so.StdDev >= ss.StdDev {
		t.Fatalf("opass stddev %v >= stock %v", so.StdDev, ss.StdDev)
	}
	if opass.TotalSeconds >= stock.TotalSeconds {
		t.Fatalf("opass total %v >= stock %v", opass.TotalSeconds, stock.TotalSeconds)
	}
}

func TestPipelineValidation(t *testing.T) {
	topo, fs, ds := setup(t, 4, 8, 5)
	if _, err := RunPipeline(topo, fs, ds, PipelineConfig{Steps: 0, BlocksPerStep: 1, Assigner: core.RankStatic{}}); err == nil {
		t.Fatal("zero steps must fail")
	}
	if _, err := RunPipeline(topo, fs, ds, PipelineConfig{Steps: 1, BlocksPerStep: 99, Assigner: core.RankStatic{}}); err == nil {
		t.Fatal("oversized step must fail")
	}
	if _, err := RunPipeline(topo, fs, ds, PipelineConfig{Steps: 1, BlocksPerStep: 4}); err == nil {
		t.Fatal("missing assigner must fail")
	}
}

func TestDefaultConfigCalibration(t *testing.T) {
	cfg := DefaultPipeline(core.SingleData{})
	if cfg.Steps != 10 || cfg.BlocksPerStep != 64 {
		t.Fatalf("default config %+v", cfg)
	}
	if cfg.Assigner.Name() != "opass-flow" {
		t.Fatalf("assigner %s", cfg.Assigner.Name())
	}
}

func TestBlockTypeString(t *testing.T) {
	if PolyData.String() != "PolyData" || BlockType(99).String() != "BlockType(99)" {
		t.Fatal("stringer wrong")
	}
}

func TestPipelineWrapsAroundDataset(t *testing.T) {
	topo, fs, ds := setup(t, 4, 8, 6)
	res, err := RunPipeline(topo, fs, ds, PipelineConfig{
		Steps: 4, BlocksPerStep: 4, ParseSeconds: 0.1, RenderSeconds: 0,
		Assigner: core.RankStatic{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 steps x 4 blocks over an 8-block dataset: each block read twice.
	if len(res.CallTimes) != 16 {
		t.Fatalf("calls = %d, want 16", len(res.CallTimes))
	}
	var served float64
	for _, s := range res.ServedMB {
		served += s
	}
	if served != 16*56 {
		t.Fatalf("served %v, want %v", served, 16*56.0)
	}
}
