package policy

import (
	"pools/internal/numa"
)

// PlacePlan is one handle's placement, resolved once when the pool is
// built (Placement.Plan). The zero value keeps every add local and never
// gifts.
type PlacePlan struct {
	// Gift is the mailbox split law: how many of a batch of n added
	// elements (n >= 1) go to hungry searchers, of which there are
	// currently hungry (>= 0). Callers clamp the result to [0, n]; for
	// single-element adds they may report hungry as 1 once any hungry
	// searcher is found. Nil means the placement never gifts, and pools
	// allocate no mailboxes.
	Gift func(n, hungry int) int
	// Candidates are the segments an add probes, in probe order. Nil
	// keeps every add in the adder's own segment without a probe.
	Candidates []int
	// Cost is the fixed score of each candidate (Cost[i] for
	// Candidates[i]); nil scores every candidate 0.
	Cost []int64
	// Weight is the score of each element already queued at a candidate.
	Weight int64
	// Foreign marks the segments of other tenants (Foreign[s]); nil
	// without a tenant partition. Pools classify every steal against it.
	Foreign []bool
}

// Direct probes every candidate's size and returns the one with the
// lowest Cost[i] + Weight × size; ties keep the earliest candidate. size
// reports a segment's current length, and substrates charge each call as
// one numa.AccessProbe: under the Section 4.3 delay models a wide probe
// sweep can cost more than it saves. Direct returns -1 without
// candidates.
func (p PlacePlan) Direct(size func(seg int) int) int {
	best, bestScore := -1, int64(0)
	for i, s := range p.Candidates {
		score := p.Weight * int64(size(s))
		if p.Cost != nil {
			score += p.Cost[i]
		}
		if best < 0 || score < bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// Local keeps every added element in the adder's own segment — the
// paper's base pool, no directed adds.
type Local struct{}

// Plan implements Placement: the empty plan.
func (Local) Plan(int, int) PlacePlan { return PlacePlan{} }

// Name implements Placement.
func (Local) Name() string { return "local" }

// GiftOne hands at most one element to each hungry searcher and keeps the
// rest local — the paper's Section 5 directed-add extension applied
// per-element: a batch arrival feeds each starving consumer one element.
type GiftOne struct{}

// Plan implements Placement: gift min(n, hungry).
func (GiftOne) Plan(int, int) PlacePlan { return PlacePlan{Gift: giftOne} }

func giftOne(n, hungry int) int { return min(n, hungry) }

// Name implements Placement.
func (GiftOne) Name() string { return "gift-one" }

// GiftHalf gifts ceil(n/2) of a batch to hungry searchers and keeps the
// other half local — the steal-half intuition applied on the add side:
// balance reserves between the producer and the starving consumers.
type GiftHalf struct{}

// Plan implements Placement.
func (GiftHalf) Plan(int, int) PlacePlan { return PlacePlan{Gift: giftHalf} }

func giftHalf(n, hungry int) int {
	if hungry == 0 {
		return 0
	}
	return (n + 1) / 2
}

// Name implements Placement.
func (GiftHalf) Name() string { return "gift-half" }

// GiftAll gifts the entire batch whenever anyone is hungry, split evenly
// among the hungry searchers — the batch-aware directed add: a PutAll
// that observes searchers hands them whole slices, sparing each an entire
// search instead of a single element's worth.
type GiftAll struct{}

// Plan implements Placement.
func (GiftAll) Plan(int, int) PlacePlan { return PlacePlan{Gift: giftAll} }

func giftAll(n, hungry int) int {
	if hungry == 0 {
		return 0
	}
	return n
}

// Name implements Placement.
func (GiftAll) Name() string { return "gift-all" }

// GiftToEmptiest is the size-aware placement the ROADMAP calls "gift
// toward the emptiest": each add probes segment sizes (walking the ring
// from the adder's own segment) and lands on the emptiest segment probed.
// It generalizes the paper's symmetric remote-add footnote ("an add
// operation encountering a full segment ... could be handled in a
// symmetric fashion, adding remotely to a segment with sufficient
// capacity") from a capacity escape hatch into a placement policy, and
// attacks the imbalance behind the paper's Section 4.2 bunching result —
// producers' segments overflow while consumers' run dry and "the
// consumers bunch up behind the producers" — from the add side: instead
// of rebalancing via steals after the fact, reserves are placed where
// they are scarcest. Hungry searchers are the extreme of an empty
// segment, so it gifts to them first, exactly like GiftAll.
type GiftToEmptiest struct {
	// Probes bounds how many segments each add examines, walking the ring
	// from the adder's own segment. 0 means DefaultProbes: on the real
	// pool every probe takes a segment lock (and under delay models a
	// charged AccessProbe), so an unbounded sweep on the Put hot path
	// would serialize producers across the whole ring. Negative probes
	// every segment — the exhaustive variant the simulator can afford.
	Probes int
}

// DefaultProbes is the zero-value GiftToEmptiest probe budget: the
// adder's own segment plus its next three ring neighbors. A small sample
// already captures most of the balancing benefit (the power-of-d-choices
// effect) at a fixed, segment-count-independent cost per add.
const DefaultProbes = 4

// budget resolves a Probes field against the pool size: 0 means
// DefaultProbes, and a negative or oversized budget probes every segment.
func budget(probes, segments int) int {
	if probes == 0 {
		probes = DefaultProbes
	}
	if probes < 0 || probes > segments {
		return segments
	}
	return probes
}

// ring returns the first k segments of the ring from self.
func ring(self, segments, k int) []int {
	r := make([]int, k)
	for i := range r {
		r[i] = (self + i) % segments
	}
	return r
}

// Plan implements Placement: gift like GiftAll (a mailbox delivery beats
// even an empty-segment placement — it spares the consumer its whole
// search), otherwise probe up to Probes segments around the ring from
// self and land on the emptiest. Ties keep the nearest, so an all-empty
// pool places locally.
func (g GiftToEmptiest) Plan(self, segments int) PlacePlan {
	return PlacePlan{Gift: giftAll, Candidates: ring(self, segments, budget(g.Probes, segments)), Weight: 1}
}

// Name implements Placement.
func (GiftToEmptiest) Name() string { return "emptiest" }

// GiftToNearestEmptiest is the topology-aware GiftToEmptiest: where
// GiftToEmptiest chases pure emptiness — paying a far cluster's add cost
// whenever a far segment happens to be emptiest — this placement weighs a
// candidate's emptiness against the hop cost of reaching it. Each add
// probes the Probes cheapest segments (nearest rings first under the cost
// model's topology) and lands on the segment minimizing
//
//	Model.Cost(AccessAdd, self, seg) + Weight × size(seg)
//
// i.e. the transfer cost of the add itself plus a per-queued-element
// penalty: an element parked behind size(seg) others is that much less
// useful to a starving consumer. With a zero-valued Model every candidate
// costs alike and the policy degenerates to GiftToEmptiest's ring sweep.
type GiftToNearestEmptiest struct {
	// Model supplies hop-aware access costs (and, through Model.Topo, the
	// nearest-first probe order). The zero value charges nothing, reducing
	// the score to pure emptiness.
	Model numa.CostModel
	// Probes bounds how many segments each add examines, cheapest-first.
	// 0 means DefaultProbes; negative probes every segment.
	Probes int
	// Weight is the score penalty per element already queued at a
	// candidate, in the Model's virtual µs. 0 means one near-remote add
	// (AddCost × RemoteFactor + one hop of RemoteExtra): a surplus element
	// costs roughly what it costs a dry neighbor to come steal it. 1 when
	// the model is zero-valued (pure emptiness).
	Weight int64
}

// weight resolves the per-queued-element penalty: one near-remote add
// under the model, or 1 for a zero-valued model.
func (g GiftToNearestEmptiest) weight() int64 {
	if g.Weight > 0 {
		return g.Weight
	}
	f := g.Model.RemoteFactor
	if f < 1 {
		f = 1
	}
	if w := g.Model.AddCost*f + g.Model.RemoteExtra; w > 0 {
		return w
	}
	return 1
}

// Plan implements Placement: gift like GiftToEmptiest (a mailbox delivery
// spares a search — no hop cost competes with that), otherwise score the
// candidates by transfer plus queue cost. An exhaustive budget probes the
// ring from self; a smaller one probes the Probes cheapest segments by add
// cost, ring order breaking ties, so the local segment is always probed
// and equal-cost ties stay near.
func (g GiftToNearestEmptiest) Plan(self, segments int) PlacePlan {
	add := func(s int) int64 { return g.Model.Cost(numa.AccessAdd, self, s) }
	var cand []int
	if k := budget(g.Probes, segments); k == segments {
		cand = ring(self, segments, k)
	} else {
		cand = RingRank(self, segments, add)[:k]
	}
	cost := make([]int64, len(cand))
	for i, s := range cand {
		cost[i] = add(s)
	}
	return PlacePlan{Gift: giftAll, Candidates: cand, Cost: cost, Weight: g.weight()}
}

// Name implements Placement.
func (GiftToNearestEmptiest) Name() string { return "near-emptiest" }
