package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
)

func result(t testing.TB) *engine.Result {
	t.Helper()
	topo := cluster.New(4, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: 1})
	if _, err := fs.Create("/d", 4*3*64); err != nil {
		t.Fatal(err)
	}
	prob, err := core.SingleDataProblem(fs, []string{"/d"}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.RankStatic{}.Assign(prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunAssignment(engine.Options{Topo: topo, FS: fs, Problem: prob, Strategy: "rank"}, a)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteNodeLoadCSV(t *testing.T) {
	res := result(t)
	var buf bytes.Buffer
	if err := WriteNodeLoadCSV(&buf, res.ServedMB); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.ServedMB)+1 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	res := result(t)
	var buf bytes.Buffer
	if err := WriteSummaryJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"strategy\": \"rank\"") {
		t.Fatalf("json = %s", buf.String())
	}
	var got Summary
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Strategy != "rank" || got.Tasks != 12 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Makespan != res.Makespan {
		t.Fatalf("makespan %v != %v", got.Makespan, res.Makespan)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	xs := []float64{0, 1, 2}
	err := WriteSeriesCSV(&buf, "k", xs, []string{"a", "b"}, [][]float64{{0, 0.5, 1}, {0, 0.2, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := csv.NewReader(&buf).ReadAll()
	if len(rows) != 4 || rows[0][1] != "a" || rows[2][2] != "0.2" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestWriteSeriesCSVValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "k", []float64{1}, []string{"a"}, nil); err == nil {
		t.Fatal("mismatched names/series must fail")
	}
	if err := WriteSeriesCSV(&buf, "k", []float64{1, 2}, []string{"a"}, [][]float64{{1}}); err == nil {
		t.Fatal("short series must fail")
	}
}
