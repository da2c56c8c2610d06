package harness

import (
	"fmt"

	"pools/internal/plot"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// This file measures the policy subsystem (internal/policy): the same
// burst workload under every steal policy — the paper's steal-half, the
// steal-one ablation, the proportional-to-appetite split, and the online
// adaptive controller — swept across batch sizes, plus a fluctuating-
// roles variant where the producer set rotates during the run. The
// sweep's question is the paper's question generalized: which transfer
// policy minimizes per-element time once consumers ask for batches, and
// can an online controller match the best static choice without being
// told the workload?

// PolicyNames returns the steal policies the sweep compares, in
// presentation order (see policy.Named).
func PolicyNames() []string { return policy.Names() }

// PolicyRow is one (policy, batch size) measurement.
type PolicyRow struct {
	Policy string
	Batch  int
	Point  Point
}

// policyBurstRun executes one burst trial under a freshly constructed
// policy set (adaptive controllers carry state, so sharing one across
// trials would contaminate the average).
func (c Config) policyBurstRun(name string, kind search.Kind, producers, batch, flipEvery int, seed uint64) sim.RunResult {
	set, err := policy.Named(name)
	if err != nil {
		panic(err) // programmer error: sweep names come from PolicyNames
	}
	w := c.workloadFor(workload.Burst)
	w.Producers = producers
	w.Arrangement = workload.Balanced
	w.BatchSize = batch
	w.RoleFlipEvery = flipEvery
	set.Order = kind
	return sim.Run(sim.RunConfig{
		Workload: w, Costs: c.Costs, Seed: seed, Policies: set,
	})
}

// PolicySweep runs the burst workload at each batch size under each steal
// policy, averaging the usual measurements per data point. Producers are
// balanced around the ring. Expected shape: steal-one pays a search per
// batch and stays flat and slow; steal-half amortizes; proportional
// tracks the requested batch exactly; adaptive should sit within a few
// percent of the best static policy at every batch size without being
// configured for any of them.
func PolicySweep(cfg Config, kind search.Kind, producers int, batches []int) []PolicyRow {
	c := cfg.withDefaults()
	var out []PolicyRow
	for _, name := range PolicyNames() {
		for _, bs := range batches {
			name, bs := name, bs
			pt := c.average(float64(bs), func(seed uint64) sim.RunResult {
				return c.policyBurstRun(name, kind, producers, bs, 0, seed)
			})
			out = append(out, PolicyRow{Policy: name, Batch: bs, Point: pt})
		}
	}
	return out
}

// PolicyFluctRow is one (policy, role-flip cadence) measurement.
type PolicyFluctRow struct {
	Policy    string
	FlipEvery int // 0 = fixed roles
	Point     Point
}

// PolicyFluctuate runs the burst workload at one batch size while the
// producer set rotates around the ring every flipEvery elements a process
// moves — the fluctuating workload: reserves keep appearing behind a
// moving frontier, so static transfer policies tuned for a stationary
// layout lose their footing. flips lists the cadences (0 = fixed roles
// for reference); at the paper scale each process moves only a few
// hundred elements, so meaningful cadences are well under that.
func PolicyFluctuate(cfg Config, kind search.Kind, producers, batch int, flips []int) []PolicyFluctRow {
	c := cfg.withDefaults()
	var out []PolicyFluctRow
	for _, name := range PolicyNames() {
		for _, flip := range flips {
			name, flip := name, flip
			pt := c.average(float64(flip), func(seed uint64) sim.RunResult {
				return c.policyBurstRun(name, kind, producers, batch, flip, seed)
			})
			out = append(out, PolicyFluctRow{Policy: name, FlipEvery: flip, Point: pt})
		}
	}
	return out
}

func policyPt(r PolicyRow) Point { return r.Point }

var policyCols = []col[PolicyRow]{
	str("policy", "policy", func(r PolicyRow) string { return r.Policy }),
	count("batch", "batch", func(r PolicyRow) int { return r.Batch }),
	at(policyPt, elemUS), at(policyPt, opUS), at(policyPt, stolen),
	at(policyPt, stealsOp), at(policyPt, abortsOp), at(policyPt, makespanMS),
}

// policyReport draws the policy sweep — one per-element-time series per
// policy across the batch sweep — and its table, and the sweep as CSV.
func policyReport(kind search.Kind, rows []PolicyRow) (text, csv string) {
	chart := plot.LineChart(
		fmt.Sprintf("Policy sweep: per-element time vs batch size (%s search, burst workload)", kind),
		"batch size (elements per PutAll/GetN)", "per-element time (virt µs)",
		70, 16,
		seriesBy(rows, func(r PolicyRow) string { return r.Policy },
			func(r PolicyRow) float64 { return float64(r.Batch) },
			func(r PolicyRow) float64 { return r.Point.PerElementTime }),
	)
	return chart + "\n" + table(policyCols, rows), csvOf(policyCols, rows)
}

func fluctPt(r PolicyFluctRow) Point { return r.Point }

var fluctCols = []col[PolicyFluctRow]{
	str("policy", "policy", func(r PolicyFluctRow) string { return r.Policy }),
	{head: "roles", csvHead: "flip_every",
		cell:    func(r PolicyFluctRow) string { return rotation(r.FlipEvery, "elems") },
		csvCell: func(r PolicyFluctRow) string { return fmt.Sprintf("%d", r.FlipEvery) }},
	at(fluctPt, elemUS), at(fluctPt, stolen), at(fluctPt, stealsOp), at(fluctPt, abortsOp),
}

// fluctReport tabulates the fluctuating-roles comparison at one batch
// size, and writes it as CSV.
func fluctReport(batch int, rows []PolicyFluctRow) (text, csv string) {
	return fmt.Sprintf("Fluctuating producers (batch %d):\n", batch) + table(fluctCols, rows), csvOf(fluctCols, rows)
}
