package harness

import (
	"fmt"

	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// AlgoRow is one line of the Section 4.3 algorithm comparison.
type AlgoRow struct {
	Kind     search.Kind
	Scenario string
	Point    Point
}

// AlgoCompare reproduces the Section 4.3 comparison: the three algorithms
// under (a) the random operations model at a sparse mix, (b) the random
// model at a sufficient mix, and (c) the balanced producer/consumer model
// — operation times, segments examined per steal, and elements stolen.
//
// Expected shape: the tree algorithm examines the fewest segments and
// steals the most elements, but its operation times never beat linear or
// random ("the complexity of the tree search algorithm does not pay off").
func AlgoCompare(cfg Config) []AlgoRow {
	c := cfg.withDefaults()
	var rows []AlgoRow
	for _, kind := range search.Kinds() {
		kind := kind
		rows = append(rows, AlgoRow{
			Kind: kind, Scenario: "random 30% adds (sparse)",
			Point: c.average(30, func(seed uint64) sim.RunResult {
				return c.runRandom(kind, 0.3, seed)
			}),
		})
		rows = append(rows, AlgoRow{
			Kind: kind, Scenario: "random 70% adds (sufficient)",
			Point: c.average(70, func(seed uint64) sim.RunResult {
				return c.runRandom(kind, 0.7, seed)
			}),
		})
		rows = append(rows, AlgoRow{
			Kind: kind, Scenario: "balanced prod/cons, 5 producers",
			Point: c.average(5, func(seed uint64) sim.RunResult {
				return c.runPC(kind, 5, workload.Balanced, seed, nil)
			}),
		})
	}
	return rows
}

func algoPt(r AlgoRow) Point { return r.Point }

var algoCols = []col[AlgoRow]{
	str("search", "", func(r AlgoRow) string { return r.Kind.String() }),
	str("scenario", "", func(r AlgoRow) string { return r.Scenario }),
	at(algoPt, opMS), at(algoPt, addMS), at(algoPt, removeMS),
	at(algoPt, segs), at(algoPt, stolen), at(algoPt, stealPct),
}

// DelayRow is one point of the Section 4.3 remote-delay sweep.
type DelayRow struct {
	DelayUS  int64
	Scenario string
	Times    map[search.Kind]float64 // avg op time (µs) per algorithm
}

// DelaySweepDelays are the added per-remote-operation delays: the paper
// tried "a variety of different delays from 1 µsec per operation to 100
// msec per operation".
var DelaySweepDelays = []int64{0, 1, 10, 100, 1000, 10000, 100000}

// DelaySweep reproduces the Section 4.3 delay experiment on both stressed
// scenarios. Expected shape: the tree algorithm "never performed better
// than either of the two other search algorithms; in fact, as the delay
// increased all three algorithms converged to very nearly identical
// performance graphs."
func DelaySweep(cfg Config) []DelayRow {
	c := cfg.withDefaults()
	var out []DelayRow
	for _, d := range DelaySweepDelays {
		costs := c.Costs.WithExtraDelay(d)
		cd := c
		cd.Costs = costs
		random := DelayRow{DelayUS: d, Scenario: "random 30% adds", Times: map[search.Kind]float64{}}
		pc := DelayRow{DelayUS: d, Scenario: "balanced prod/cons 5", Times: map[search.Kind]float64{}}
		for _, kind := range search.Kinds() {
			kind := kind
			rpt := cd.average(float64(d), func(seed uint64) sim.RunResult {
				return cd.runRandom(kind, 0.3, seed)
			})
			random.Times[kind] = rpt.AvgOpTime
			ppt := cd.average(float64(d), func(seed uint64) sim.RunResult {
				return cd.runPC(kind, 5, workload.Balanced, seed, nil)
			})
			pc.Times[kind] = ppt.AvgOpTime
		}
		out = append(out, random, pc)
	}
	return out
}

// delayCols tabulates the sweep with a convergence ratio column (tree
// time / best simple-algorithm time; -> 1.0 means converged).
var delayCols = []col[DelayRow]{
	count("delay (µs)", "", func(r DelayRow) int64 { return r.DelayUS }),
	str("scenario", "", func(r DelayRow) string { return r.Scenario }),
	delayMS("linear (ms)", search.Linear),
	delayMS("random (ms)", search.Random),
	delayMS("tree (ms)", search.Tree),
	str("tree/best", "", func(r DelayRow) string {
		best := min(r.Times[search.Linear], r.Times[search.Random])
		ratio := 0.0
		if best > 0 {
			ratio = r.Times[search.Tree] / best
		}
		return fmt.Sprintf("%.3f", ratio)
	}),
}

// delayMS is one algorithm's operation time column.
func delayMS(head string, kind search.Kind) col[DelayRow] {
	return scaled(head, ms, "", 0, func(r DelayRow) float64 { return r.Times[kind] })
}

// StealPolicyRow compares steal-half with steal-one (the ablation backing
// the paper's design rationale: stealing half balances reserves and
// reduces steal frequency).
type StealPolicyRow struct {
	Kind     search.Kind
	StealOne bool
	Point    Point
}

// StealPolicyAblation runs the balanced producer/consumer workload (5
// producers) under both policies. That scenario steals multi-element
// hauls, so the policies separate cleanly; at sparse random mixes most
// victims hold a single element and the two policies coincide.
func StealPolicyAblation(cfg Config) []StealPolicyRow {
	c := cfg.withDefaults()
	var out []StealPolicyRow
	for _, kind := range search.Kinds() {
		for _, steal := range []policy.StealAmount{nil, policy.One{}} { // nil: steal-half
			out = append(out, StealPolicyRow{
				Kind: kind, StealOne: steal != nil,
				Point: c.average(0, func(seed uint64) sim.RunResult {
					return c.runPC(kind, 5, workload.Balanced, seed, steal)
				}),
			})
		}
	}
	return out
}

func stealPt(r StealPolicyRow) Point { return r.Point }

var stealCols = []col[StealPolicyRow]{
	str("search", "", func(r StealPolicyRow) string { return r.Kind.String() }),
	str("policy", "", func(r StealPolicyRow) string {
		if r.StealOne {
			return "steal-one"
		}
		return "steal-half"
	}),
	at(stealPt, opMS), at(stealPt, stealsOp), at(stealPt, stolen), at(stealPt, segs),
}

// ArrangementRow compares contiguous vs balanced producer placement for
// one algorithm (the Section 4.2 headline: "Balancing the producers
// consistently lowered the average time for add operations, remove
// operations, and steals").
type ArrangementRow struct {
	Kind        search.Kind
	Arrangement workload.Arrangement
	Point       Point
}

// ArrangementCompare runs the producer/consumer workload with k producers
// under both arrangements.
func ArrangementCompare(cfg Config, kind search.Kind, producers int) []ArrangementRow {
	c := cfg.withDefaults()
	var out []ArrangementRow
	for _, arr := range []workload.Arrangement{workload.Contiguous, workload.Balanced} {
		arr := arr
		out = append(out, ArrangementRow{
			Kind: kind, Arrangement: arr,
			Point: c.average(float64(producers), func(seed uint64) sim.RunResult {
				return c.runPC(kind, producers, arr, seed, nil)
			}),
		})
	}
	return out
}

func arrangePt(r ArrangementRow) Point { return r.Point }

var arrangeCols = []col[ArrangementRow]{
	str("search", "", func(r ArrangementRow) string { return r.Kind.String() }),
	str("producers", "", func(r ArrangementRow) string { return r.Arrangement.String() }),
	at(arrangePt, opMS), at(arrangePt, addMS), at(arrangePt, removeMS),
	at(arrangePt, stolen), at(arrangePt, stealsOp), at(arrangePt, segs),
}

// DynamicRolesRow compares fixed producer roles with rotating ones (the
// paper's Section 3.3 note that "in many real systems, the identity of
// the processes acting as producers may change dynamically over time").
type DynamicRolesRow struct {
	Kind      search.Kind
	FlipEvery int // 0 = fixed roles
	Point     Point
}

// DynamicRoles runs the contiguous producer/consumer workload with fixed
// roles and with roles rotating one position at several cadences.
// Rotation spreads production around the ring over time, so it should
// recover some of the balanced arrangement's benefit without any static
// placement decision.
func DynamicRoles(cfg Config) []DynamicRolesRow {
	c := cfg.withDefaults()
	var out []DynamicRolesRow
	for _, kind := range []search.Kind{search.Linear, search.Tree} {
		for _, flip := range []int{0, 50, 10} {
			kind, flip := kind, flip
			out = append(out, DynamicRolesRow{
				Kind: kind, FlipEvery: flip,
				Point: c.average(float64(flip), func(seed uint64) sim.RunResult {
					w := c.workloadFor(workload.ProducerConsumer)
					w.Producers = 5
					w.Arrangement = workload.Contiguous
					w.RoleFlipEvery = flip
					return sim.Run(sim.RunConfig{
						Workload: w, Policies: policy.Set{Order: kind}, Costs: c.Costs, Seed: seed,
					})
				}),
			})
		}
	}
	return out
}

func rolesPt(r DynamicRolesRow) Point { return r.Point }

var rolesCols = []col[DynamicRolesRow]{
	str("search", "", func(r DynamicRolesRow) string { return r.Kind.String() }),
	str("roles", "", func(r DynamicRolesRow) string { return rotation(r.FlipEvery, "ops") }),
	at(rolesPt, opMS), at(rolesPt, stolen), at(rolesPt, stealsOp), at(rolesPt, abortsOp),
}

// rotation names a role-flip cadence: "fixed", or "rotate/N <unit>".
func rotation(flipEvery int, unit string) string {
	if flipEvery > 0 {
		return fmt.Sprintf("rotate/%d %s", flipEvery, unit)
	}
	return "fixed"
}
