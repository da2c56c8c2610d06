// Package harness defines one reproducible experiment per table and figure
// in the paper's evaluation (Section 4), plus the ablations DESIGN.md
// calls out. Every experiment runs on the virtual-time Butterfly
// (internal/sim), averages workload.PaperTrials seeded trials exactly as
// Section 3.4 prescribes, and renders its results as text tables and ASCII
// figures.
package harness

import (
	"fmt"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// Config carries the experiment-wide knobs. Zero fields take paper
// defaults via withDefaults.
type Config struct {
	Trials int            // trials averaged per data point (default 10)
	Seed   uint64         // master seed; trial i uses SubSeed(Seed, i)
	Costs  numa.CostModel // access cost model (default ButterflyCosts)
	Procs  int            // processors/segments (default 16)
	Ops    int            // shared op budget per trial (default 5000)
	Fill   int            // initial elements (default 320)
}

// withDefaults fills unset fields with the paper's protocol values.
func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		c.Trials = workload.PaperTrials
	}
	if c.Seed == 0 {
		c.Seed = 1989
	}
	if c.Costs == (numa.CostModel{}) {
		c.Costs = numa.ButterflyCosts()
	}
	if c.Procs == 0 {
		c.Procs = workload.PaperProcs
	}
	if c.Ops == 0 {
		c.Ops = workload.PaperTotalOps
	}
	if c.Fill == 0 {
		c.Fill = workload.PaperInitialElements
	}
	return c
}

// workloadFor builds the workload config for this experiment config.
func (c Config) workloadFor(model workload.Model) workload.Config {
	w := workload.Config{
		Procs:           c.Procs,
		Model:           model,
		Arrangement:     workload.Contiguous,
		TotalOps:        c.Ops,
		InitialElements: c.Fill,
	}
	return w
}

// Point is one averaged measurement set at one sweep position.
type Point struct {
	X float64 // sweep coordinate (job mix %, producer count, delay ...)

	AvgOpTime        float64 // µs, over adds + removes + aborts (Figure 2)
	PerElementTime   float64 // µs per element moved (AvgOpTime under batching)
	AvgAddTime       float64 // µs
	AvgRemoveTime    float64 // µs
	SegmentsExamined float64 // per steal
	ElementsStolen   float64 // per steal (Figure 7)
	StealFraction    float64 // fraction of removes requiring a steal
	StealsPerOp      float64 // steal frequency
	AbortsPerOp      float64 // abort frequency
	MixAchieved      float64 // fraction of completed ops that were adds
	MakespanMean     float64 // virtual µs
	CrossProbeFrac   float64 // fraction of remote probes crossing a cluster boundary
}

// average runs cfg.Trials simulated trials of run and averages the paper's
// measurements. run must honor the per-trial seed it receives.
func (c Config) average(x float64, run func(trialSeed uint64) sim.RunResult) Point {
	pt := Point{X: x}
	n := float64(c.Trials)
	for trial := 0; trial < c.Trials; trial++ {
		res := run(rng.SubSeed(c.Seed, trial))
		st := res.Stats
		pt.AvgOpTime += st.AvgOpTime() / n
		pt.PerElementTime += st.AvgTimePerElement() / n
		pt.AvgAddTime += st.AddTime.Mean() / n
		pt.AvgRemoveTime += st.RemoveTime.Mean() / n
		pt.SegmentsExamined += st.SegmentsExamined.Mean() / n
		pt.ElementsStolen += st.ElementsStolen.Mean() / n
		pt.StealFraction += st.StealFraction() / n
		// Per-operation rates: one batch PutAll/GetN is one operation,
		// so these stay comparable between batched and single-element runs.
		if ops := float64(st.OpCount()); ops > 0 {
			pt.StealsPerOp += float64(st.Steals) / ops / n
			pt.AbortsPerOp += float64(st.Aborts) / ops / n
		}
		pt.MixAchieved += st.MixAchieved() / n
		pt.MakespanMean += float64(res.Makespan) / n
		pt.CrossProbeFrac += st.CrossProbeFraction() / n
	}
	return pt
}

// runRandom executes one random-ops trial.
func (c Config) runRandom(kind search.Kind, addFraction float64, trialSeed uint64) sim.RunResult {
	w := c.workloadFor(workload.RandomOps)
	w.AddFraction = addFraction
	return sim.Run(sim.RunConfig{
		Workload: w, Search: kind, Costs: c.Costs, Seed: trialSeed,
	})
}

// runPC executes one producer/consumer trial under the given steal amount
// (nil means the paper's steal-half).
func (c Config) runPC(kind search.Kind, producers int, arr workload.Arrangement, trialSeed uint64, steal policy.StealAmount) sim.RunResult {
	w := c.workloadFor(workload.ProducerConsumer)
	w.Producers = producers
	w.Arrangement = arr
	return sim.Run(sim.RunConfig{
		Workload: w, Search: kind, Costs: c.Costs, Seed: trialSeed,
		Policies: policy.Set{Steal: steal},
	})
}

// fmtF renders a float with sensible precision for tables.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
