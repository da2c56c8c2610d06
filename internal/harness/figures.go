package harness

import (
	"fmt"
	"strings"

	"pools/internal/metrics"
	"pools/internal/plot"
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

// Render draws the Figure 2 chart (times in ms, as in the paper).
func (r Fig2Result) Render() string {
	toSeries := func(name string, pts []Point) plot.Series {
		s := plot.Series{Name: name}
		for _, p := range pts {
			s.X = append(s.X, p.X)
			s.Y = append(s.Y, p.AvgOpTime/1000) // µs -> ms
		}
		return s
	}
	chart := plot.LineChart(
		"Figure 2: average operation time for the tree traversal algorithm",
		"percent of operations that were adds", "avg op time (ms)",
		70, 16,
		[]plot.Series{toSeries("random", r.Random), toSeries("producer/consumer", r.PC)},
	)
	var rows [][]string
	for _, p := range r.Random {
		rows = append(rows, []string{"random", fmtF(p.X), fmtF(p.AvgOpTime / 1000), fmtF(p.StealFraction * 100), fmtF(p.SegmentsExamined)})
	}
	for _, p := range r.PC {
		rows = append(rows, []string{"prod/cons", fmtF(p.X), fmtF(p.AvgOpTime / 1000), fmtF(p.StealFraction * 100), fmtF(p.SegmentsExamined)})
	}
	table := plot.Table(
		[]string{"model", "%adds", "avg op (ms)", "%removes stealing", "segs/steal"}, rows)
	return chart + "\n" + table
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
		Workload: w, Search: kind, Costs: c.Costs,
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

// Render draws the trace panel.
func (r TraceResult) Render() string {
	title := fmt.Sprintf("%s: segment sizes over time (%s search, %s producers)",
		r.Figure, r.Kind, r.Arrangement)
	body := plot.SegmentTraces(title, r.Sampled, r.Producers)
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

// Render draws the Figure 7 chart and table.
func (r Fig7Result) Render() string {
	toSeries := func(name string, pts []Point) plot.Series {
		s := plot.Series{Name: name}
		for _, p := range pts {
			s.X = append(s.X, p.X)
			s.Y = append(s.Y, p.ElementsStolen)
		}
		return s
	}
	chart := plot.LineChart(
		"Figure 7: average number of elements stolen per steal (tree search)",
		"number of producers", "elements stolen per steal",
		70, 16,
		[]plot.Series{toSeries("unbalanced", r.Unbalanced), toSeries("balanced", r.Balanced)},
	)
	var rows [][]string
	for i := range r.Unbalanced {
		rows = append(rows, []string{
			fmt.Sprintf("%d", int(r.Unbalanced[i].X)),
			fmtF(r.Unbalanced[i].ElementsStolen),
			fmtF(r.Balanced[i].ElementsStolen),
			fmtF(r.Unbalanced[i].StealsPerOp),
			fmtF(r.Balanced[i].StealsPerOp),
		})
	}
	table := plot.Table(
		[]string{"producers", "stolen/steal (unbal)", "stolen/steal (bal)", "steals/op (unbal)", "steals/op (bal)"}, rows)
	return chart + "\n" + table
}

// CSV emits the Figure 2 data points as comma-separated values for
// external plotting.
func (r Fig2Result) CSV() string {
	header := []string{"model", "pct_adds", "avg_op_us", "steal_fraction", "segments_per_steal", "stolen_per_steal"}
	var rows [][]string
	emit := func(model string, pts []Point) {
		for _, p := range pts {
			rows = append(rows, []string{
				model,
				fmt.Sprintf("%.1f", p.X),
				fmt.Sprintf("%.1f", p.AvgOpTime),
				fmt.Sprintf("%.4f", p.StealFraction),
				fmt.Sprintf("%.2f", p.SegmentsExamined),
				fmt.Sprintf("%.2f", p.ElementsStolen),
			})
		}
	}
	emit("random", r.Random)
	emit("producer-consumer", r.PC)
	return plot.CSV(header, rows)
}

// CSV emits the Figure 7 data points as comma-separated values.
func (r Fig7Result) CSV() string {
	header := []string{"producers", "stolen_per_steal_unbalanced", "stolen_per_steal_balanced", "steals_per_op_unbalanced", "steals_per_op_balanced"}
	var rows [][]string
	for i := range r.Unbalanced {
		rows = append(rows, []string{
			fmt.Sprintf("%d", int(r.Unbalanced[i].X)),
			fmt.Sprintf("%.2f", r.Unbalanced[i].ElementsStolen),
			fmt.Sprintf("%.2f", r.Balanced[i].ElementsStolen),
			fmt.Sprintf("%.4f", r.Unbalanced[i].StealsPerOp),
			fmt.Sprintf("%.4f", r.Balanced[i].StealsPerOp),
		})
	}
	return plot.CSV(header, rows)
}
