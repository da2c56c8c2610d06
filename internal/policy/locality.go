package policy

import (
	"sort"

	"pools/internal/numa"
	"pools/internal/search"
)

// LocalityOrder is the latency-aware VictimOrder: it consults a
// numa.CostModel and visits victims cheapest-first, so a searching
// process exhausts its near neighborhood before paying for far
// references. The paper's Section 4.3 delay experiments (1 µs .. 100 ms
// added per remote operation) show all three of its search algorithms
// converging as remote costs grow — they are equally blind to where a
// victim lives; LocalityOrder is the policy that stops being blind, and
// it separates from them exactly when the cost model makes "remote"
// non-uniform (e.g. numa.Clusters).
//
// When the model charges every remote victim identically (the measured
// Butterfly: a flat switch network, no topology), ranking adds nothing
// and the order falls back to the configured paper algorithm.
type LocalityOrder struct {
	// Model is the access cost model victims are ranked under. Ranking
	// uses probe costs; any access kind gives the same order since cost is
	// monotone in distance.
	Model numa.CostModel
	// Fallback is the search algorithm used when Model charges every
	// remote victim the same (ranking would be arbitrary); 0 means
	// search.Linear, the paper's cheapest algorithm.
	Fallback search.Kind
}

var _ VictimOrder = LocalityOrder{}

// fallbackKind returns the fallback algorithm, defaulting to Linear.
func (o LocalityOrder) fallbackKind() search.Kind {
	if o.Fallback == 0 {
		return search.Linear
	}
	return o.Fallback
}

// probeCosts returns the model's probe cost from self to every segment.
func (o LocalityOrder) probeCosts(self, segments int) []int64 {
	costs := make([]int64, segments)
	for v := 0; v < segments; v++ {
		costs[v] = o.Model.Cost(numa.AccessProbe, self, v)
	}
	return costs
}

// uniform reports whether every remote victim costs the same to probe, in
// which case ranking degenerates and the fallback algorithm is used.
func uniform(self int, costs []int64) bool {
	first := int64(-1)
	for v, c := range costs {
		if v == self {
			continue
		}
		if first < 0 {
			first = c
			continue
		}
		if c != first {
			return false
		}
	}
	return true
}

// Plan implements VictimOrder: segments in ascending probe-cost order,
// ties broken by ring distance from self (so the local segment — the only
// non-remote probe — always ranks first, and equal-cost victims are
// visited in the paper's linear order), searched by an ordered searcher
// and swept in that order by the keyed pool. Under a victim-uniform model
// there is nothing to rank: the plan is the fallback algorithm's, whose
// nil rank keeps the keyed pool's ring sweep.
func (o LocalityOrder) Plan(self, segments int, seed uint64, escalate func(base int) int) search.Plan {
	costs := o.probeCosts(self, segments)
	if uniform(self, costs) {
		return o.fallbackKind().Plan(self, segments, seed, escalate)
	}
	order := RingRank(self, segments, func(v int) int64 { return costs[v] })
	return search.Plan{Searcher: search.NewOrderedSearcher(order), Rank: order}
}

// RingRank returns every segment in ring order from self, stably sorted
// by cost: the cheapest first, equal costs in ring order. It ranks
// LocalityOrder's victims, GiftToNearestEmptiest's budgeted candidates
// and the real pool's mailbox delivery order.
func RingRank(self, segments int, cost func(s int) int64) []int {
	order := ring(self, segments, segments)
	sort.SliceStable(order, func(i, j int) bool { return cost(order[i]) < cost(order[j]) })
	return order
}

// Name implements VictimOrder.
func (o LocalityOrder) Name() string { return "locality" }
