package harness

import (
	"fmt"
	"strings"

	"pools/internal/metrics"
	"pools/internal/plot"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// Fig2Result holds Figure 2: average operation time vs job mix for the
// tree traversal algorithm, comparing the random and producer/consumer
// models.
type Fig2Result struct {
	Random []Point // x = requested %adds (0..100)
	PC     []Point // x = measured %adds; swept over producer counts
}

// Fig2 reproduces Figure 2.
func Fig2(cfg Config) Fig2Result {
	c := cfg.withDefaults()
	var out Fig2Result
	for _, mix := range workload.MixSweep() {
		pt := c.average(mix*100, func(seed uint64) sim.RunResult {
			return c.runRandom(search.Tree, mix, seed)
		})
		out.Random = append(out.Random, pt)
	}
	for _, k := range workload.ProducerSweep(c.Procs) {
		k := k
		pt := c.average(0, func(seed uint64) sim.RunResult {
			return c.runPC(search.Tree, k, workload.Contiguous, seed, nil)
		})
		// The paper plots the producer/consumer data at the measured mix:
		// "the job mix was measured and the data was plotted on that
		// scale."
		pt.X = pt.MixAchieved * 100
		out.PC = append(out.PC, pt)
	}
	return out
}

// labeled is one Point under its series' chart, table and CSV labels.
type labeled struct {
	line, model, csvModel string
	p                     Point
}

// label tags every point of one series.
func label(line, model, csvModel string, pts []Point) []labeled {
	out := make([]labeled, len(pts))
	for i, p := range pts {
		out[i] = labeled{line, model, csvModel, p}
	}
	return out
}

func labeledX(l labeled) float64 { return l.p.X }
func labeledPt(l labeled) Point  { return l.p }

var fig2Cols = []col[labeled]{
	{head: "model", csvHead: "model",
		cell:    func(l labeled) string { return l.model },
		csvCell: func(l labeled) string { return l.csvModel }},
	at(labeledPt, num("%adds", "pct_adds", 1, func(p Point) float64 { return p.X })),
	at(labeledPt, scaled("avg op (ms)", ms, "avg_op_us", 1, func(p Point) float64 { return p.AvgOpTime })),
	at(labeledPt, stealPct),
	at(labeledPt, num("segs/steal", "segments_per_steal", 2, func(p Point) float64 { return p.SegmentsExamined })),
	at(labeledPt, stolen.csvOnly()),
}

// report draws the Figure 2 chart (times in ms, as in the paper) and
// table, and the points as CSV.
func (r Fig2Result) report() (text, csv string) {
	rows := append(label("random", "random", "random", r.Random),
		label("producer/consumer", "prod/cons", "producer-consumer", r.PC)...)
	chart := plot.LineChart(
		"Figure 2: average operation time for the tree traversal algorithm",
		"percent of operations that were adds", "avg op time (ms)",
		70, 16,
		seriesBy(rows, func(l labeled) string { return l.line }, labeledX,
			func(l labeled) float64 { return l.p.AvgOpTime / 1000 }),
	)
	return chart + "\n" + table(fig2Cols, rows), csvOf(fig2Cols, rows)
}

// TraceResult holds one Figures 3-6 style panel: per-segment sizes over
// virtual time for one trial.
type TraceResult struct {
	Figure      string
	Kind        search.Kind
	Arrangement workload.Arrangement
	Producers   map[int]bool
	Sampled     [][]int64 // [segment][time bucket]
	Waited      []int64   // queueing delay per segment (interference)
	Stats       metrics.PoolStats
}

// FigTrace reproduces one of Figures 3-6: a single traced trial of the
// producer/consumer model with 5 producers and 11 consumers.
//
//	Figure 3: linear search, contiguous producers
//	Figure 4: linear search, balanced producers
//	Figure 5: tree search, contiguous producers
//	Figure 6: tree search, balanced producers
func FigTrace(cfg Config, figure string, kind search.Kind, arr workload.Arrangement, producers int) TraceResult {
	c := cfg.withDefaults()
	w := c.workloadFor(workload.ProducerConsumer)
	w.Producers = producers
	w.Arrangement = arr
	res := sim.Run(sim.RunConfig{
		Workload: w, Policies: policy.Set{Order: kind}, Costs: c.Costs,
		Seed: rng.SubSeed(c.Seed, 0), Trace: true,
	})

	const buckets = 100
	end := int64(1)
	for i := range res.Traces {
		if t := res.Traces[i].MaxTime(); t > end {
			end = t
		}
	}
	times := make([]int64, buckets)
	for i := range times {
		times[i] = end * int64(i+1) / buckets
	}
	out := TraceResult{
		Figure:      figure,
		Kind:        kind,
		Arrangement: arr,
		Producers:   map[int]bool{},
		Waited:      res.SegmentWaited,
		Stats:       res.Stats,
	}
	for _, p := range workload.ProducerPositions(c.Procs, producers, arr) {
		out.Producers[p] = true
	}
	for i := range res.Traces {
		out.Sampled = append(out.Sampled, res.Traces[i].SampleAt(times))
	}
	return out
}

// render draws the trace panel.
func (r TraceResult) render() string {
	title := fmt.Sprintf("%s: segment sizes over time (%s search, %s producers)",
		r.Figure, r.Kind, r.Arrangement)
	body := plot.TracePanels(title, "seg", "elements", r.Sampled, r.Producers, "P", "C")
	var waits []string
	for i, w := range r.Waited {
		role := "C"
		if r.Producers[i] {
			role = "P"
		}
		waits = append(waits, fmt.Sprintf("%d%s:%d", i, role, w))
	}
	return body + "queueing delay per segment (µs): " + strings.Join(waits, " ") + "\n"
}

// ProducersDrained reports how many producer segments were ever stolen
// down to empty during the run — the paper's bunching evidence is that
// with contiguous producers "producer 4 is never stolen from".
func (r TraceResult) ProducersDrained() int {
	drained := 0
	for seg, isP := range r.Producers {
		if !isP {
			continue
		}
		// A producer's segment only shrinks via steals. Look for any
		// decrease in its sampled trace.
		tr := r.Sampled[seg]
		for i := 1; i < len(tr); i++ {
			if tr[i] < tr[i-1] {
				drained++
				break
			}
		}
	}
	return drained
}

// Fig7Result holds Figure 7 (errata orientation): average number of
// elements stolen per steal vs the number of producers, for the
// unbalanced (contiguous) and balanced arrangements under tree search.
type Fig7Result struct {
	Unbalanced []Point
	Balanced   []Point
}

// Fig7 reproduces Figure 7.
func Fig7(cfg Config) Fig7Result {
	c := cfg.withDefaults()
	var out Fig7Result
	for _, k := range workload.ProducerSweep(c.Procs) {
		k := k
		out.Unbalanced = append(out.Unbalanced, c.average(float64(k), func(seed uint64) sim.RunResult {
			return c.runPC(search.Tree, k, workload.Contiguous, seed, nil)
		}))
		out.Balanced = append(out.Balanced, c.average(float64(k), func(seed uint64) sim.RunResult {
			return c.runPC(search.Tree, k, workload.Balanced, seed, nil)
		}))
	}
	return out
}

// fig7Row is one producer count under both arrangements.
type fig7Row struct{ unbal, bal Point }

var fig7Cols = []col[fig7Row]{
	count("producers", "producers", func(r fig7Row) int { return int(r.unbal.X) }),
	num("stolen/steal (unbal)", "stolen_per_steal_unbalanced", 2, func(r fig7Row) float64 { return r.unbal.ElementsStolen }),
	num("stolen/steal (bal)", "stolen_per_steal_balanced", 2, func(r fig7Row) float64 { return r.bal.ElementsStolen }),
	num("steals/op (unbal)", "steals_per_op_unbalanced", 4, func(r fig7Row) float64 { return r.unbal.StealsPerOp }),
	num("steals/op (bal)", "steals_per_op_balanced", 4, func(r fig7Row) float64 { return r.bal.StealsPerOp }),
}

// report draws the Figure 7 chart and table, and the points as CSV.
func (r Fig7Result) report() (text, csv string) {
	lines := append(label("unbalanced", "", "", r.Unbalanced), label("balanced", "", "", r.Balanced)...)
	chart := plot.LineChart(
		"Figure 7: average number of elements stolen per steal (tree search)",
		"number of producers", "elements stolen per steal",
		70, 16,
		seriesBy(lines, func(l labeled) string { return l.line }, labeledX,
			func(l labeled) float64 { return l.p.ElementsStolen }),
	)
	rows := make([]fig7Row, len(r.Unbalanced))
	for i := range rows {
		rows[i] = fig7Row{r.Unbalanced[i], r.Balanced[i]}
	}
	return chart + "\n" + table(fig7Cols, rows), csvOf(fig7Cols, rows)
}
