package opass

import (
	"fmt"
	"strings"

	"opass/internal/engine"
	"opass/internal/report"
)

// Report summarizes one executed plan with the statistics the paper
// reports: per-request I/O time distribution, per-node data-served balance,
// locality, and job makespan.
type Report struct {
	Strategy string
	// IOTimes holds each chunk read's duration in completion order (the
	// trace plotted in Figures 7c, 9, 11 and 12).
	IOTimes []float64
	// IO summarizes IOTimes (avg/max/min/stddev — Figures 7a/7b).
	IO report.Stats
	// ServedMB is the data served per storage node (Figures 8 and 10).
	ServedMB []float64
	// Served summarizes ServedMB across nodes.
	Served report.Stats
	// LocalFraction is the fraction of bytes read from the reader's own
	// disk.
	LocalFraction float64
	// Makespan is the job's virtual execution time in seconds.
	Makespan float64
	// Fairness is Jain's index over ServedMB (1.0 = perfectly balanced).
	Fairness float64
	// TasksRun counts executed tasks.
	TasksRun int
	// RackLocalMB / CrossRackMB split the remote bytes by rack boundary:
	// remote reads served within the reader's rack vs reads that crossed a
	// rack uplink. Both are zero when every read was local; on a
	// single-rack topology CrossRackMB is always zero.
	RackLocalMB float64
	CrossRackMB float64

	res *engine.Result
}

func newReport(res *engine.Result) *Report {
	sum := report.Summarize(res)
	return &Report{
		Strategy:      sum.Strategy,
		IOTimes:       res.IOTimes(),
		IO:            sum.IO,
		ServedMB:      append([]float64(nil), res.ServedMB...),
		Served:        sum.Served,
		LocalFraction: sum.LocalFraction,
		Makespan:      sum.Makespan,
		Fairness:      sum.Fairness,
		TasksRun:      sum.Tasks,
		RackLocalMB:   res.RackLocalMB,
		CrossRackMB:   res.CrossRackMB,
		res:           res,
	}
}

// Raw exposes the underlying engine result for detailed inspection.
func (r *Report) Raw() *engine.Result { return r.res }

// ReportOf wraps a raw engine result in a Report — for tools that drive the
// execution engine directly, such as opass sim's trace replay.
func ReportOf(res *engine.Result) *Report { return newReport(res) }

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s: tasks=%d makespan=%.2fs io[avg=%.2fs min=%.2fs max=%.2fs] local=%.1f%% fairness=%.3f",
		r.Strategy, r.TasksRun, r.Makespan, r.IO.Mean, r.IO.Min, r.IO.Max, 100*r.LocalFraction, r.Fairness)
}

// Table renders a multi-line human-readable report.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy          %s\n", r.Strategy)
	fmt.Fprintf(&b, "tasks run         %d\n", r.TasksRun)
	fmt.Fprintf(&b, "makespan          %.2f s\n", r.Makespan)
	fmt.Fprintf(&b, "I/O time          avg %.3f s  min %.3f s  max %.3f s  sd %.3f s\n",
		r.IO.Mean, r.IO.Min, r.IO.Max, r.IO.StdDev)
	fmt.Fprintf(&b, "data served/node  avg %.0f MB  min %.0f MB  max %.0f MB\n",
		r.Served.Mean, r.Served.Min, r.Served.Max)
	fmt.Fprintf(&b, "local reads       %.1f%% of bytes\n", 100*r.LocalFraction)
	if r.RackLocalMB > 0 || r.CrossRackMB > 0 {
		fmt.Fprintf(&b, "remote bytes      rack-local %.0f MB  cross-rack %.0f MB\n",
			r.RackLocalMB, r.CrossRackMB)
	}
	fmt.Fprintf(&b, "balance (Jain)    %.3f\n", r.Fairness)
	return b.String()
}

// Compare renders a side-by-side comparison of two reports, baseline first,
// in the style of the paper's "with/without Opass" figures.
func Compare(baseline, opt *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %14s %14s %8s\n", "metric", baseline.Strategy, opt.Strategy, "gain")
	row := func(name string, bv, ov float64, higherBetter bool) {
		num, den := bv, ov
		if higherBetter {
			num, den = ov, bv
		}
		gain := "     n/a"
		if den > 1e-9 {
			gain = fmt.Sprintf("%7.2fx", num/den)
		}
		fmt.Fprintf(&b, "%-22s %14.3f %14.3f %s\n", name, bv, ov, gain)
	}
	row("avg I/O time (s)", baseline.IO.Mean, opt.IO.Mean, false)
	row("max I/O time (s)", baseline.IO.Max, opt.IO.Max, false)
	row("I/O time stddev (s)", baseline.IO.StdDev, opt.IO.StdDev, false)
	row("makespan (s)", baseline.Makespan, opt.Makespan, false)
	row("max served/node (MB)", baseline.Served.Max, opt.Served.Max, false)
	row("local bytes fraction", baseline.LocalFraction, opt.LocalFraction, true)
	if baseline.CrossRackMB > 0 || opt.CrossRackMB > 0 {
		row("cross-rack bytes (MB)", baseline.CrossRackMB, opt.CrossRackMB, false)
	}
	row("fairness (Jain)", baseline.Fairness, opt.Fairness, true)
	return b.String()
}
