package harness

import (
	"fmt"

	"pools/internal/numa"
	"pools/internal/plot"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// This file measures the locality-aware policy extensions. The paper's
// Section 4.3 delay experiments add 1 µs .. 100 ms to every remote
// operation "to simulate a higher-cost remote access architecture" and
// find all three search algorithms converging — they are equally blind to
// where a victim lives, so every extra microsecond hits them alike. The
// locality sweep re-runs that experiment on a machine where "remote" is
// not one cost (numa.Clusters: near-remote one hop, far-remote four) and
// adds the policy the paper could not have: a victim order that consults
// the cost model (policy.LocalityOrder). The controller-trace experiment
// surfaces the other PR-2 follow-on, per-handle controllers, by plotting
// each handle's steal fraction and batch recommendation over virtual
// time.

// LocalityScales are the added per-remote-operation delays (virtual µs)
// swept by the locality experiment, the Section 4.3 range at one-decade
// steps.
func LocalityScales() []int64 { return []int64{0, 10, 100, 1000, 10000} }

// LocalityClusterSize is the cluster width of the swept topology: 16
// paper processors in four clusters of four.
const LocalityClusterSize = 4

// LocalityOrderNames lists the victim orders the sweep compares: the
// paper's three locality-blind algorithms plus the cost-ranked order.
func LocalityOrderNames() []string {
	return []string{"linear", "random", "tree", "locality"}
}

// LocalityMix is the job mix of the locality sweep: the paper's sparse
// 30%-adds random-operations workload (the same scenario its own delay
// experiment stresses), chosen because every process both adds and
// removes — a slow searcher keeps claiming budget, so the comparison is
// not distorted by role drift the way asymmetric producer/consumer runs
// are at extreme delays.
const LocalityMix = 0.3

// LocalitySweep runs the sparse random-operations workload on a
// clustered machine at each added remote delay under each victim order.
// Expected shape: at zero delay all orders coincide with their fallbacks
// (LocalityOrder falls back to linear — with no per-victim cost
// difference there is nothing to rank); as the delay grows, random and
// tree pay the far-cluster rate on most probes (they wander across
// cluster boundaries, and the tree's round counters are remote besides)
// while the locality order exhausts its cheap in-cluster victims first
// and its curve pulls away below the blind orders.
func LocalitySweep(cfg Config, scales []int64) []OrderRow {
	return orderSweep(cfg, scales, LocalityOrderNames(), numa.Clusters{Size: LocalityClusterSize})
}

// OrderRow is one (configuration, delay scale) measurement of an order
// sweep. Topo names the hop topology the sweep ran on, so the two-level
// and three-level hierarchical sweeps' CSV rows stay distinguishable when
// concatenated.
type OrderRow struct {
	Order   string
	Topo    string
	DelayUS int64
	Point   Point
}

// orderSweep runs the sparse random-operations workload (LocalityMix) on
// topo at each added remote delay under each named configuration
// (orderSet). The locality and hierarchical sweeps differ only in names
// and topology.
func orderSweep(cfg Config, scales []int64, names []string, topo numa.Topology) []OrderRow {
	c := cfg.withDefaults()
	base := c.Costs.WithTopology(topo)
	var out []OrderRow
	for _, name := range names {
		for _, d := range scales {
			costs := base.WithExtraDelay(d)
			cd := c
			cd.Costs = costs
			pt := cd.average(float64(d), func(seed uint64) sim.RunResult {
				w := cd.workloadFor(workload.RandomOps)
				w.AddFraction = LocalityMix
				return sim.Run(sim.RunConfig{
					Workload: w, Costs: costs,
					Seed: seed, Policies: orderSet(name, costs, topo),
				})
			})
			out = append(out, OrderRow{Order: name, Topo: topo.Name(), DelayUS: d, Point: pt})
		}
	}
	return out
}

func orderPt(r OrderRow) Point { return r.Point }

// localityReport draws the locality sweep — one average-operation-time
// series per victim order across the delay scales (the paper's Figure 2
// metric) — and its table with a locality/best-blind ratio column (< 1.0
// means the cost-ranked order beat every blind order at that delay), and
// the sweep as CSV.
func localityReport(rows []OrderRow) (text, csv string) {
	chart := plot.LineChart(
		fmt.Sprintf("Locality sweep: avg operation time vs added remote delay (clustered topology, %d-proc clusters)", LocalityClusterSize),
		"added delay per remote op (virt µs)", "avg op time (virt µs)",
		70, 16,
		seriesBy(rows, func(r OrderRow) string { return r.Order },
			func(r OrderRow) float64 { return float64(r.DelayUS) },
			func(r OrderRow) float64 { return r.Point.AvgOpTime }),
	)
	best := map[int64]float64{}
	for _, r := range rows {
		if r.Order == "locality" {
			continue
		}
		if v, ok := best[r.DelayUS]; !ok || r.Point.AvgOpTime < v {
			best[r.DelayUS] = r.Point.AvgOpTime
		}
	}
	cols := []col[OrderRow]{
		str("order", "order", func(r OrderRow) string { return r.Order }),
		count("delay (µs)", "delay_us", func(r OrderRow) int64 { return r.DelayUS }),
		at(orderPt, opUS), at(orderPt, removeUS), at(orderPt, segs),
		at(orderPt, stealsOp), at(orderPt, abortsOp),
		str("vs best blind", "", func(r OrderRow) string {
			return ratioTo(r.Order == "locality", r.Point.AvgOpTime, best[r.DelayUS])
		}),
		at(orderPt, makespanMS.csvOnly()),
	}
	return chart + "\n" + table(cols, rows), csvOf(cols, rows)
}

// ratioTo is a ratio cell: v/best to three places on the rows it
// applies to, "-" elsewhere.
func ratioTo(applies bool, v, best float64) string {
	if !applies || best <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", v/best)
}

// ControlTraceResult holds one controller-trajectory run: the per-handle
// steal fraction, batch recommendation, and cross-cluster probe fraction
// over virtual time under the per-handle adaptive policy on the burst
// producer/consumer workload (run on the clustered topology so the
// cross-probe accounting has boundaries to observe).
type ControlTraceResult struct {
	Kind      search.Kind
	Batch     int
	Producers map[int]bool
	// FracSampled[h] is handle h's steal fraction (permil) resampled at
	// uniform virtual-time steps; BatchSampled[h] the batch
	// recommendation; CrossSampled[h] the cumulative cross-cluster probe
	// fraction (permil).
	FracSampled  [][]int64
	BatchSampled [][]int64
	CrossSampled [][]int64
	// FinalFrac, FinalBatch, and FinalCross are each handle's last
	// sampled values.
	FinalFrac  []float64
	FinalBatch []int64
	FinalCross []float64
	Makespan   int64
}

// ControlTraceRun executes one burst producer/consumer trial under the
// per-handle adaptive policy with controller tracing on, on the clustered
// topology the locality sweep uses. Producers never remove, so their
// controllers hold the paper's steal-half fraction; consumers steal
// constantly and their fractions climb — per-handle control is visible as
// diverging rows, where the pool-wide adaptive set would show every row
// identical. Producers are contiguous (the paper's unbalanced Figure 3
// arrangement), so whole clusters hold no producer at all and the
// cross-probe panels have structure to show: a consumer sharing a cluster
// with a producer settles to a low cross fraction, one marooned in an
// all-consumer cluster pays the boundary on most probes.
func ControlTraceRun(cfg Config, kind search.Kind, producers, batch int) ControlTraceResult {
	c := cfg.withDefaults()
	set, err := policy.Named("per-handle")
	if err != nil {
		panic(err) // programmer error: the name is a registry constant
	}
	w := c.workloadFor(workload.Burst)
	w.Producers = producers
	w.Arrangement = workload.Contiguous
	w.BatchSize = batch
	set.Order = kind
	res := sim.Run(sim.RunConfig{
		Workload: w,
		Costs:    c.Costs.WithTopology(numa.Clusters{Size: LocalityClusterSize}),
		Seed:     rng.SubSeed(c.Seed, 0), Policies: set, ControlTrace: true,
	})

	const buckets = 100
	end := int64(1)
	for i := range res.Controls {
		if t := res.Controls[i].FracPermil.MaxTime(); t > end {
			end = t
		}
	}
	times := make([]int64, buckets)
	for i := range times {
		times[i] = end * int64(i+1) / buckets
	}
	out := ControlTraceResult{
		Kind:      kind,
		Batch:     batch,
		Producers: map[int]bool{},
		Makespan:  res.Makespan,
	}
	for _, p := range workload.ProducerPositions(c.Procs, producers, workload.Contiguous) {
		out.Producers[p] = true
	}
	for i := range res.Controls {
		fr := res.Controls[i].FracPermil.SampleAt(times)
		ba := res.Controls[i].Batch.SampleAt(times)
		cr := res.Controls[i].CrossPermil.SampleAt(times)
		out.FracSampled = append(out.FracSampled, fr)
		out.BatchSampled = append(out.BatchSampled, ba)
		out.CrossSampled = append(out.CrossSampled, cr)
		out.FinalFrac = append(out.FinalFrac, float64(fr[len(fr)-1])/1000)
		out.FinalBatch = append(out.FinalBatch, ba[len(ba)-1])
		out.FinalCross = append(out.FinalCross, float64(cr[len(cr)-1])/1000)
	}
	return out
}

// handleRole names handle h's role in a producer/consumer run.
func handleRole(producers map[int]bool, h int) string {
	if producers[h] {
		return "producer"
	}
	return "consumer"
}

// handleSample indexes one handle's trajectory at one sample.
type handleSample struct{ h, i int }

// permil is a sampled permil column: a fraction to three places in the
// table, the raw permil in the CSV.
func permil(head, csvHead string, trace [][]int64) col[handleSample] {
	return col[handleSample]{head: head, csvHead: csvHead,
		cell:    func(s handleSample) string { return fmt.Sprintf("%.3f", float64(trace[s.h][s.i])/1000) },
		csvCell: func(s handleSample) string { return fmt.Sprintf("%d", trace[s.h][s.i]) }}
}

// controlTraceReport draws the trajectory panels — steal fraction per
// handle over virtual time, then each handle's cross-cluster probe
// fraction — and the final-operating-point table (each handle's last
// sample), and writes the trajectories as long-form CSV: one row per
// (handle, sample).
func controlTraceReport(r ControlTraceResult) (text, csv string) {
	title := fmt.Sprintf("Controller trajectories: per-handle steal fraction over time (%s search, burst batch %d)",
		r.Kind, r.Batch)
	body := plot.TracePanels(title, "handle", "steal fraction (permil)", r.FracSampled, r.Producers, "P", "C")
	crossTitle := fmt.Sprintf("Cross-cluster probe fraction per handle over time (%d-proc clusters)",
		LocalityClusterSize)
	body += "\n" + plot.TracePanels(crossTitle, "handle", "cross-probe fraction (permil)", r.CrossSampled, r.Producers, "P", "C")
	cols := []col[handleSample]{
		count("handle", "handle", func(s handleSample) int { return s.h }),
		str("role", "role", func(s handleSample) string { return handleRole(r.Producers, s.h) }),
		count("", "sample", func(s handleSample) int { return s.i }),
		permil("final steal fraction", "frac_permil", r.FracSampled),
		count("final batch", "batch", func(s handleSample) int64 { return r.BatchSampled[s.h][s.i] }),
		permil("final cross-frac", "cross_permil", r.CrossSampled),
	}
	var finals, samples []handleSample
	for h := range r.FracSampled {
		finals = append(finals, handleSample{h, len(r.FracSampled[h]) - 1})
		for i := range r.FracSampled[h] {
			samples = append(samples, handleSample{h, i})
		}
	}
	return body + "\n" + table(cols, finals), csvOf(cols, samples)
}
