// Package report is the one run summary of the repository: Summarize turns
// an engine.Result into the statistics the paper reports — per-request I/O
// time and per-node served-data distributions (average, maximum, minimum,
// standard deviation: Figures 7–11 and 1, 8, 10), locality, and Jain's
// fairness index as the aggregate balance score — and is the only place
// they are computed. Around it sit the formats a summarised run leaves the
// process in: the JSON envelope opassd and `opass sim -json` emit, plain
// CSV rows (one per node for load profiles, one per operation for traces)
// for re-plotting elsewhere, and small ASCII charts for the terminal.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"opass/internal/engine"
)

// Summary is the JSON envelope for one run.
type Summary struct {
	Strategy      string  `json:"strategy"`
	Tasks         int     `json:"tasks"`
	Makespan      float64 `json:"makespan_s"`
	IO            Stats   `json:"io_time_s"`
	Served        Stats   `json:"served_mb"`
	LocalFraction float64 `json:"local_fraction"`
	Fairness      float64 `json:"jain_fairness"`
	Retries       int     `json:"retries,omitempty"`
	FailedNodes   []int   `json:"failed_nodes,omitempty"`
	// Fault-recovery counters: nodes that came back from a transient
	// outage, backlog replans spliced into the run, and chunks restored to
	// full replication by the repair pass.
	RecoveredNodes []int `json:"recovered_nodes,omitempty"`
	Replans        int   `json:"replans,omitempty"`
	RepairedChunks int   `json:"repaired_chunks,omitempty"`
}

// Summarize converts an engine result into the JSON envelope.
func Summarize(res *engine.Result) Summary {
	return Summary{
		Strategy:       res.Strategy,
		Tasks:          res.TasksRun,
		Makespan:       res.Makespan,
		IO:             statsOver(len(res.Records), func(i int) float64 { return res.Records[i].Duration() }),
		Served:         StatsOf(res.ServedMB),
		LocalFraction:  res.LocalFraction(),
		Fairness:       JainIndex(res.ServedMB),
		Retries:        res.Retries,
		FailedNodes:    res.FailedNodes,
		RecoveredNodes: res.RecoveredNodes,
		Replans:        res.Replans,
		RepairedChunks: res.RepairedChunks,
	}
}

// WriteSummaryJSON writes the envelope, indented for human diffing.
func WriteSummaryJSON(w io.Writer, res *engine.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Summarize(res)); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// WriteNodeLoadCSV writes one row per node: the Figure 1a/8c/10 data.
func WriteNodeLoadCSV(w io.Writer, servedMB []float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"node", "served_mb"}); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	for n, mb := range servedMB {
		if err := cw.Write([]string{strconv.Itoa(n), fmtFloat(mb)}); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSeriesCSV writes (x, y...) rows for multi-series figures such as the
// Figure 3 CDFs. Every series must have the same length.
func WriteSeriesCSV(w io.Writer, xHeader string, xs []float64, names []string, series [][]float64) error {
	if len(names) != len(series) {
		return fmt.Errorf("report: %d names for %d series", len(names), len(series))
	}
	for i, s := range series {
		if len(s) != len(xs) {
			return fmt.Errorf("report: series %q has %d points, want %d", names[i], len(s), len(xs))
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{xHeader}, names...)); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	for i, x := range xs {
		row := make([]string, 0, 1+len(series))
		row = append(row, fmtFloat(x))
		for _, s := range series {
			row = append(row, fmtFloat(s[i]))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
