package harness

import (
	"fmt"

	"pools/internal/numa"
	"pools/internal/plot"
	"pools/internal/policy"
	"pools/internal/search"
)

// This file measures the hierarchical-steal extension. The locality sweep
// (locality.go) showed a cost-ranked victim order pulling ahead of the
// paper's blind searches once "remote" stops being one cost; the
// hierarchical sweep asks the follow-on question: is ranking enough, or
// should a searcher *refuse* to cross a cluster boundary until its own
// cluster has proven fruitless? policy.HierarchicalOrder escalates
// through hop rings under a tunable fruitless-probe threshold, and
// policy.GiftToNearestEmptiest attacks the same cost from the add side —
// both are judged here by the fraction of remote probes that cross a
// cluster boundary (the dominant cost on loosely-coupled machines) next
// to the usual average operation time.

// HierOrderNames lists the configurations the hierarchical sweep
// compares: two flat paper orders, the cost-ranked order, hierarchical
// escalation (static threshold and per-handle-tuned), and hierarchical
// stealing paired with the topology-aware placement. (On the two-ring
// cluster topology the default-threshold hierarchical searcher coincides
// with the cost-ranked order whenever the delay scale is non-zero — both
// walk cluster-first in ring order — so the rows that separate "hier"
// from "locality" are scale 0, where locality has nothing to rank, and
// the tuned/placement variants.)
func HierOrderNames() []string {
	return []string{"linear", "random", "locality", "hier", "hier-adaptive", "hier-place"}
}

// orderSet builds a fresh policy set for one named sweep configuration
// under the given cost model and topology. The hierarchical, locality and
// keyed-locality sweeps share it; each one's …OrderNames list chooses its
// rows. Note that LocalityOrder ranks by the cost model, so at zero added
// delay (a victim-uniform model) it degenerates to its fallback, while
// HierarchicalOrder ranks by the topology's rings regardless of scale.
func orderSet(name string, costs numa.CostModel, topo numa.Topology) policy.Set {
	switch name {
	case "ring":
		return policy.Set{} // the keyed pool's default sweep
	case "linear":
		return policy.Set{Order: search.Linear}
	case "random":
		return policy.Set{Order: search.Random}
	case "tree":
		return policy.Set{Order: search.Tree}
	case "locality":
		return policy.Set{Order: policy.LocalityOrder{Model: costs}}
	case "hier":
		return policy.Set{Order: policy.HierarchicalOrder{Topo: topo}}
	case "hier-adaptive":
		// Fresh per trial: each handle's spawned controller is both its
		// steal amount and its escalation tuner (EscalationThreshold).
		return policy.Set{Order: policy.HierarchicalOrder{Topo: topo}, Control: policy.NewPerHandle()}
	case "hier-place":
		return policy.Set{
			Order: policy.HierarchicalOrder{Topo: topo},
			Place: policy.GiftToNearestEmptiest{Model: costs},
		}
	default:
		panic(fmt.Sprintf("harness: unknown sweep configuration %q", name))
	}
}

// HierSweep runs the sparse random-operations workload on the clustered
// machine at each added remote delay under each configuration. Expected
// shape: the hierarchical orders hold a structurally lower cross-cluster
// probe fraction than the flat orders at every delay (they re-probe the
// near ring before crossing), and as the delay scale grows that
// discipline compounds — each avoided crossing is worth Far hops of
// RemoteExtra — so their operation-time curves pull below the flat
// orders' alongside (and then past) the merely-ranked locality order.
func HierSweep(cfg Config, scales []int64) []OrderRow {
	return orderSweep(cfg, scales, HierOrderNames(), numa.Clusters{Size: LocalityClusterSize})
}

// DeepTopology is the three-level machine the deep hierarchical sweep
// runs on: 16 paper processors as eight 2-processor boards in two
// 8-processor cabinets (numa.NestedClusters{Inner: 2, Outer: 8}) — hop
// distances 1 (board), 2 (cabinet), 4 (machine). Each searcher's
// escalation ladder has three rings here, so the threshold fires twice
// per fully-fruitless search instead of once.
func DeepTopology() numa.Topology { return numa.NestedClusters{Inner: 2, Outer: 8} }

// HierDeepSweep is HierSweep on the three-level DeepTopology — the
// deeper-than-two-level machine the escalation ladder supports but the
// two-level sweep never exercises. The cross-probe fraction counts every
// probe that leaves the searcher's inner cluster (hop distance > 1), so
// hierarchical orders start from a higher flat baseline here (any
// off-board probe is "cross") and the discipline of climbing board →
// cabinet → machine shows up as a larger relative reduction.
func HierDeepSweep(cfg Config, scales []int64) []OrderRow {
	return orderSweep(cfg, scales, HierOrderNames(), DeepTopology())
}

// hierReport draws one hierarchical sweep, labelling the charts with the
// topology description: the cross-cluster probe fraction per
// configuration across the delay scales (the discipline the policy
// exists to enforce), the average-operation-time chart, and the table
// with a hier/best-flat time ratio column (< 1.0 means cluster-first
// escalation beat every flat order at that delay). The CSV's topology
// column keeps rows from the two-level and three-level sweeps
// distinguishable when both blocks appear in one output.
func hierReport(rows []OrderRow, label string) (text, csv string) {
	order := func(r OrderRow) string { return r.Order }
	delay := func(r OrderRow) float64 { return float64(r.DelayUS) }
	fracChart := plot.LineChart(
		fmt.Sprintf("Hierarchical sweep: cross-cluster probe fraction vs added remote delay (%s)", label),
		"added delay per remote op (virt µs)", "cross-cluster probe fraction",
		70, 14,
		seriesBy(rows, order, delay, func(r OrderRow) float64 { return r.Point.CrossProbeFrac }),
	)
	timeChart := plot.LineChart(
		fmt.Sprintf("Hierarchical sweep: avg operation time vs added remote delay (%s)", label),
		"added delay per remote op (virt µs)", "avg op time (virt µs)",
		70, 14,
		seriesBy(rows, order, delay, func(r OrderRow) float64 { return r.Point.AvgOpTime }),
	)
	// Best flat (locality-blind, non-hierarchical) time per delay for the
	// ratio column.
	bestFlat := map[int64]float64{}
	for _, r := range rows {
		if r.Order != "linear" && r.Order != "random" {
			continue
		}
		if v, ok := bestFlat[r.DelayUS]; !ok || r.Point.AvgOpTime < v {
			bestFlat[r.DelayUS] = r.Point.AvgOpTime
		}
	}
	cols := []col[OrderRow]{
		str("order", "order", order),
		str("", "topology", func(r OrderRow) string { return r.Topo }),
		count("delay (µs)", "delay_us", func(r OrderRow) int64 { return r.DelayUS }),
		dec("cross-frac", 3, "cross_probe_frac", 4, func(r OrderRow) float64 { return r.Point.CrossProbeFrac }),
		at(orderPt, opUS), at(orderPt, segs), at(orderPt, stealsOp), at(orderPt, abortsOp),
		str("vs best flat", "", func(r OrderRow) string {
			return ratioTo(r.Order == "hier", r.Point.AvgOpTime, bestFlat[r.DelayUS])
		}),
		at(orderPt, makespanMS.csvOnly()),
	}
	return fracChart + "\n" + timeChart + "\n" + table(cols, rows), csvOf(cols, rows)
}
