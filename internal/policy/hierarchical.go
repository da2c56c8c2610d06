package policy

import (
	"sort"

	"pools/internal/numa"
	"pools/internal/rng"
	"pools/internal/search"
)

// HierarchicalOrder is the cluster-first VictimOrder for machines whose
// numa.Topology groups processors into hop rings: a searching process
// exhausts every victim in its own cluster — repeatedly, in the Inner
// order's preference — before escalating to the next ring, and so on
// outward until the whole machine is in play. The paper's loosely-coupled
// setting makes cross-machine probes the dominant cost; LocalityOrder
// stops being blind to that cost by visiting cheapest-first, and
// HierarchicalOrder goes one step further by *refusing* to pay it until
// the near rings have proven fruitless.
//
// Escalation is governed by a threshold of consecutive fruitless probes
// within the current frontier. The structural default (Threshold == 0) is
// one full fruitless pass over the frontier; when the handle has a
// Controller, the threshold is tuned online by its EscalationThreshold,
// from the same feedback window that drives batch recommendations.
//
// Under a nil or victim-uniform Topology there are no rings to climb and
// the order delegates to Inner entirely, mirroring LocalityOrder's
// fallback under victim-uniform costs.
type HierarchicalOrder struct {
	// Topo assigns the hop rings. Nil behaves like numa.Uniform (one
	// remote ring), which delegates everything to Inner.
	Topo numa.Topology
	// Inner orders victims within each ring: a paper search algorithm
	// (a search.Kind) or LocalityOrder. An inner plan's rank contributes
	// its preference; search.Random shuffles each ring with the
	// searcher's seed; every other order visits rings clockwise from
	// self. Nil means search.Linear.
	Inner VictimOrder
	// Threshold is the consecutive-fruitless-probe count that triggers
	// escalation to the next ring. 0 means the structural default (the
	// current frontier's size: one full fruitless pass); negative means
	// escalate immediately (every probe admits the next ring — the flat
	// ablation). Explicit positive values larger than the frontier make
	// the searcher lap its cluster several times before crossing.
	Threshold int
}

var _ VictimOrder = HierarchicalOrder{}

// inner returns the within-ring order, defaulting to linear.
func (o HierarchicalOrder) inner() VictimOrder {
	if o.Inner == nil {
		return search.Linear
	}
	return o.Inner
}

// Name implements VictimOrder.
func (o HierarchicalOrder) Name() string { return "hier-" + o.inner().Name() }

// distances returns each segment's hop distance from self (numa.Uniform
// when Topo is nil) and whether every remote segment sits at the same
// distance (no rings: hierarchy adds nothing).
func (o HierarchicalOrder) distances(self, segments int) (dist []int, uniform bool) {
	topo := o.Topo
	if topo == nil {
		topo = numa.Uniform{}
	}
	dist = make([]int, segments)
	uniform = true
	first := -1
	for s := 0; s < segments; s++ {
		if s == self {
			continue
		}
		dist[s] = topo.Distance(self, s)
		if dist[s] < 1 {
			dist[s] = 1
		}
		if first < 0 {
			first = dist[s]
		} else if dist[s] != first {
			uniform = false
		}
	}
	return dist, uniform
}

// innerPositions returns each segment's preference index under the inner
// order: the inner plan's rank when it has one, a seeded shuffle for the
// random order, ring offset from self otherwise. Smaller is preferred.
func (o HierarchicalOrder) innerPositions(self, segments int, seed uint64, rank []int) []int {
	pos := make([]int, segments)
	if rank != nil {
		for i, s := range rank {
			pos[s] = i
		}
		return pos
	}
	if o.inner() == search.Random {
		perm := make([]int, segments)
		for i := range perm {
			perm[i] = i
		}
		x := rng.NewXoshiro256(seed)
		for i := segments - 1; i > 0; i-- {
			j := int(x.Next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i, s := range perm {
			pos[s] = i
		}
		pos[self] = -1 // self stays first within ring 0
		return pos
	}
	for s := 0; s < segments; s++ {
		pos[s] = (s - self + segments) % segments // clockwise from self
	}
	return pos
}

// ladder builds the full visit order (self first, then rings outward,
// inner preference within each ring) and the frontier prefix lengths, one
// per distinct hop distance: levels[0] covers self plus the nearest ring
// (the searcher's own cluster), each subsequent level admits the next
// ring.
func (o HierarchicalOrder) ladder(dist []int, self int, seed uint64, rank []int) (order, levels []int) {
	segments := len(dist)
	pos := o.innerPositions(self, segments, seed, rank)
	order = make([]int, segments)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		da, db := dist[a], dist[b]
		if a == self {
			da = -1
		}
		if b == self {
			db = -1
		}
		if da != db {
			return da < db
		}
		return pos[a] < pos[b]
	})
	last := -2
	for i, s := range order {
		d := dist[s]
		if s == self {
			d = -1
		}
		if d != last && i > 0 {
			levels = append(levels, i)
		}
		last = d
	}
	levels = append(levels, segments)
	// Self alone is not a frontier: merge it into the nearest ring so the
	// first escalation level is "my cluster", not "my own segment".
	if len(levels) > 1 && levels[0] == 1 {
		levels = levels[1:]
	}
	return order, levels
}

// Plan implements VictimOrder: the escalating cluster-first searcher,
// its threshold tuned by escalate when the handle has a controller, and
// its visit order as the rank the keyed pool sweeps. Under a ring-less
// topology there is nothing to escalate through, and the inner order's
// plan is returned unchanged. So is an inner plan with no searcher,
// which pools reject.
func (o HierarchicalOrder) Plan(self, segments int, seed uint64, escalate func(base int) int) search.Plan {
	in := o.inner().Plan(self, segments, seed, escalate)
	dist, uniform := o.distances(self, segments)
	if uniform || in.Searcher == nil {
		return in
	}
	order, levels := o.ladder(dist, self, seed, in.Rank)
	return search.Plan{
		Searcher: &hierSearcher{order: order, levels: levels, threshold: o.Threshold, esc: escalate},
		Rank:     order,
	}
}

// hierSearcher probes an expanding frontier of hop rings: cycle the
// current frontier in preference order, and after enough consecutive
// fruitless probes admit the next ring — jumping straight to its first
// victim, since the near ring was just seen empty. Once every ring is
// admitted it behaves like an OrderedSearcher over the whole preference,
// which is what lets the substrates' abort rules (coverage in core, the
// lap rule in sim) terminate a search on a genuinely empty pool.
type hierSearcher struct {
	order     []int
	levels    []int              // frontier prefix lengths, innermost first
	threshold int                // configured HierarchicalOrder.Threshold
	esc       func(base int) int // the controller's EscalationThreshold; nil untuned
}

var _ search.Searcher = (*hierSearcher)(nil)

// Kind implements search.Searcher.
func (h *hierSearcher) Kind() search.Kind { return search.Hierarchical }

// Reset implements search.Searcher: hierarchical searches carry no
// cross-search state — every search restarts at the innermost frontier.
func (h *hierSearcher) Reset() {}

// thresholdFor resolves the escalation threshold for a frontier of size
// base: the structural rule (one full pass, or the configured override),
// tuned by the controller when one is attached. Negative configured
// thresholds escalate on every probe.
func (h *hierSearcher) thresholdFor(base int) int {
	t := base
	if h.threshold > 0 {
		t = h.threshold
	} else if h.threshold < 0 {
		return 0
	}
	if h.esc != nil {
		t = max(h.esc(t), 1)
	}
	return t
}

// Search implements search.Searcher.
func (h *hierSearcher) Search(w search.World) search.Result {
	level := 0
	fruitless := 0
	examined := 0
	i := 0
	for !w.Aborted() {
		end := h.levels[level]
		s := h.order[i%end]
		got := w.TrySteal(s)
		examined++
		if got > 0 {
			return search.Result{Got: got, FoundAt: s, Examined: examined}
		}
		fruitless++
		i++
		if level < len(h.levels)-1 && fruitless >= h.thresholdFor(end) {
			// Escalate: admit the next ring and probe it first — the
			// frontier we just exhausted stays in rotation behind it.
			i = end
			level++
			fruitless = 0
		}
	}
	return search.Result{FoundAt: -1, Examined: examined}
}
