package policy

import (
	"sort"

	"pools/internal/numa"
	"pools/internal/rng"
	"pools/internal/search"
)

// ControlAware is an optional VictimOrder extension: orders whose
// searchers consult the handle's Controller while they run. Substrates
// resolve the handle's controller first (Set.ForHandle) and then build the
// searcher through BuildSearcher, so a per-handle controller tunes the
// very search that feeds it — HierarchicalOrder's escalation threshold is
// the in-repo case.
type ControlAware interface {
	VictimOrder
	// SearcherFor is Searcher with the handle's resolved controller (nil
	// when the policy set has none).
	SearcherFor(self, segments int, seed uint64, ctl Controller) search.Searcher
}

// BuildSearcher constructs the search strategy for one handle: orders that
// are ControlAware receive the handle's controller, every other order gets
// the plain Searcher call. Both substrates (internal/core and
// internal/sim) build their per-handle searchers through this helper.
func BuildSearcher(o VictimOrder, self, segments int, seed uint64, ctl Controller) search.Searcher {
	if ca, ok := o.(ControlAware); ok {
		return ca.SearcherFor(self, segments, seed, ctl)
	}
	return o.Searcher(self, segments, seed)
}

// Escalator is an optional Controller extension consulted by hierarchical
// searchers: it tunes how many consecutive fruitless probes a searcher
// invests in its current hop frontier before escalating to the next ring.
// Adaptive implements it from the same feedback window that drives its
// batch recommendation: when searches run long relative to steals the
// local rings are evidently dry, so the threshold drops and the searcher
// crosses sooner.
type Escalator interface {
	// EscalationThreshold returns the tuned threshold for a frontier whose
	// untuned (structural) threshold is base (>= 1). Implementations must
	// return a value >= 1: a searcher must always invest at least one probe
	// per frontier, or escalation degenerates into a flat search.
	EscalationThreshold(base int) int
}

// EscalationThreshold implements Escalator: the structural base shrinks by
// the same power-of-two shift that grows the batch recommendation. The
// shift rises when searches average many probes per steal — exactly the
// signal that the cheap rings are dry and persistence there is wasted —
// and falls back when aborts show the whole pool draining (crossing
// clusters cannot help an empty machine). Never below one probe.
func (a *Adaptive) EscalationThreshold(base int) int {
	t := base >> uint(a.shift.Load())
	if t < 1 {
		return 1
	}
	return t
}

// EscalationThreshold implements Escalator on the aggregate: the
// structural base, untuned. Handle-level searchers built via Set.ForHandle
// consult their spawned Adaptive instance instead.
func (p *PerHandle) EscalationThreshold(base int) int {
	if base < 1 {
		return 1
	}
	return base
}

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
// one full fruitless pass over the frontier; when the handle's Controller
// implements Escalator (the adaptive policies do), the threshold is tuned
// online from the same feedback window that drives batch recommendations.
//
// Under a nil or victim-uniform Topology there are no rings to climb and
// the order delegates to Inner entirely, mirroring LocalityOrder's
// fallback under victim-uniform costs.
type HierarchicalOrder struct {
	// Topo assigns the hop rings. Nil behaves like numa.Uniform (one
	// remote ring), which delegates everything to Inner.
	Topo numa.Topology
	// Inner orders victims within each ring: a paper search algorithm
	// (a search.Kind) or LocalityOrder. Rankers (LocalityOrder) contribute
	// their preference; search.Random shuffles each ring with the
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

var (
	_ ControlAware = HierarchicalOrder{}
	_ Ranker       = HierarchicalOrder{}
)

// inner returns the within-ring order, defaulting to linear.
func (o HierarchicalOrder) inner() VictimOrder {
	if o.Inner == nil {
		return search.Linear
	}
	return o.Inner
}

// SearchKind reports the algorithm the order delegates to under a
// ring-less topology, so pools allocate tree round-counter nodes when the
// inner order needs them.
func (o HierarchicalOrder) SearchKind() search.Kind { return KindOf(o.inner()) }

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
// order: a Ranker's explicit rank when it offers one, a seeded shuffle for
// the random order, ring offset from self otherwise. Smaller is preferred.
func (o HierarchicalOrder) innerPositions(self, segments int, seed uint64) []int {
	pos := make([]int, segments)
	in := o.inner()
	if r, ok := in.(Ranker); ok {
		if rank := r.Rank(self, segments); rank != nil {
			for i, s := range rank {
				pos[s] = i
			}
			return pos
		}
	}
	if in == search.Random {
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

// plan builds the full visit order (self first, then rings outward, inner
// preference within each ring) and the frontier prefix lengths, one per
// distinct hop distance: levels[0] covers self plus the nearest ring (the
// searcher's own cluster), each subsequent level admits the next ring.
func (o HierarchicalOrder) plan(self, segments int, seed uint64) (order, levels []int) {
	dist, _ := o.distances(self, segments)
	pos := o.innerPositions(self, segments, seed)
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

// Rank implements Ranker: rings outward from self, inner preference within
// each ring — the sweep order the keyed pool walks. Under a ring-less
// topology it delegates to the inner order's Ranker (nil when the inner
// order has no ranking to offer, keeping the caller's default sweep).
func (o HierarchicalOrder) Rank(self, segments int) []int {
	if _, uniform := o.distances(self, segments); uniform {
		if r, ok := o.inner().(Ranker); ok {
			return r.Rank(self, segments)
		}
		return nil
	}
	order, _ := o.plan(self, segments, 0)
	return order
}

// Searcher implements VictimOrder: SearcherFor without a controller (the
// structural threshold applies untuned).
func (o HierarchicalOrder) Searcher(self, segments int, seed uint64) search.Searcher {
	return o.SearcherFor(self, segments, seed, nil)
}

// SearcherFor implements ControlAware: the escalating cluster-first
// searcher, with its threshold tuned by ctl when ctl is an Escalator.
// Under a ring-less topology the inner order's searcher is returned
// unchanged (there is nothing to escalate through).
func (o HierarchicalOrder) SearcherFor(self, segments int, seed uint64, ctl Controller) search.Searcher {
	if _, uniform := o.distances(self, segments); uniform {
		return BuildSearcher(o.inner(), self, segments, seed, ctl)
	}
	order, levels := o.plan(self, segments, seed)
	h := &hierSearcher{order: order, levels: levels, threshold: o.Threshold}
	if esc, ok := ctl.(Escalator); ok {
		h.esc = esc
	}
	return h
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
	levels    []int // frontier prefix lengths, innermost first
	threshold int   // configured HierarchicalOrder.Threshold
	esc       Escalator
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
		t = h.esc.EscalationThreshold(t)
		if t < 1 {
			t = 1
		}
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
