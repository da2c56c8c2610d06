package harness

import (
	"fmt"

	"pools/internal/plot"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// This file measures the batch-operation extension: the paper shows pool
// throughput is dominated by how rarely an operation leaves its local
// segment; batching pushes the same lever from the other side, amortizing
// one segment acquisition over k elements. The burst workload replays the
// producer/consumer model with every process moving elements in batches
// (PutAll/GetN), sweeping the batch size.

// BurstBatchSweep returns the default batch sizes for the burst sweep.
// Batch 1 is the degenerate case, equivalent in work to the paper's
// single-element producer/consumer model.
func BurstBatchSweep() []int { return []int{1, 2, 4, 8, 16, 32, 64} }

// BurstRow is one batch-size measurement.
type BurstRow struct {
	Batch int
	Point Point
}

// BurstSweep runs the burst workload at each batch size and averages the
// usual measurements per data point. Producers are balanced around the
// ring (the Section 4.2 lesson applied); per-element time is the headline:
// it should fall as the batch grows, because one segment access — and one
// queueing exposure at a contended segment — now covers the whole batch.
func BurstSweep(cfg Config, kind search.Kind, producers int, batches []int) []BurstRow {
	c := cfg.withDefaults()
	var out []BurstRow
	for _, bs := range batches {
		bs := bs
		pt := c.average(float64(bs), func(seed uint64) sim.RunResult {
			w := c.workloadFor(workload.Burst)
			w.Producers = producers
			w.Arrangement = workload.Balanced
			w.BatchSize = bs
			return sim.Run(sim.RunConfig{
				Workload: w, Policies: policy.Set{Order: kind}, Costs: c.Costs, Seed: seed,
			})
		})
		out = append(out, BurstRow{Batch: bs, Point: pt})
	}
	return out
}

func burstPt(r BurstRow) Point { return r.Point }

var burstCols = []col[BurstRow]{
	count("batch", "batch", func(r BurstRow) int { return r.Batch }),
	at(burstPt, elemUS), at(burstPt, opUS), at(burstPt, stolen), at(burstPt, stealsOp), at(burstPt, makespanMS),
}

// burstReport draws the burst sweep chart and table, and the sweep as CSV.
func burstReport(kind search.Kind, rows []BurstRow) (text, csv string) {
	chart := plot.LineChart(
		fmt.Sprintf("Burst workload: per-element operation time vs batch size (%s search)", kind),
		"batch size (elements per PutAll/GetN)", "per-element time (virt µs)",
		70, 16,
		seriesBy(rows, func(BurstRow) string { return "per-element time" },
			func(r BurstRow) float64 { return float64(r.Batch) },
			func(r BurstRow) float64 { return r.Point.PerElementTime }),
	)
	return chart + "\n" + table(burstCols, rows), csvOf(burstCols, rows)
}
