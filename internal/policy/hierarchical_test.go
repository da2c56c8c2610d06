package policy

import (
	"reflect"
	"testing"

	"pools/internal/numa"
	"pools/internal/search"
)

// probeWorld is a scripted search.World: segment sizes are fixed, every
// probe is recorded, and the search aborts after maxProbes fruitless
// probes so escalation paths can be observed on an empty pool.
type probeWorld struct {
	self    int
	sizes   []int
	visited []int
	max     int
}

func (w *probeWorld) Segments() int { return len(w.sizes) }
func (w *probeWorld) Self() int     { return w.self }
func (w *probeWorld) Aborted() bool { return len(w.visited) >= w.max }
func (w *probeWorld) TrySteal(s int) int {
	w.visited = append(w.visited, s)
	return w.sizes[s]
}

// clustered2 is the 6-segment, 2-per-cluster topology the tests use:
// rings from segment 0 are {0}, {1}, {2,3,4,5}.
var clustered2 = numa.Clusters{Size: 2}

func TestHierarchicalRankClusterFirst(t *testing.T) {
	o := HierarchicalOrder{Topo: clustered2}
	got := o.Plan(3, 6, 0, nil).Rank
	// Cluster of 3 is {2,3}: self first, cluster mate next, then the far
	// ring clockwise from self.
	want := []int{3, 2, 4, 5, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rank(3,6) = %v, want %v", got, want)
	}
}

func TestHierarchicalRankUniformDelegates(t *testing.T) {
	if got := (HierarchicalOrder{Topo: numa.Uniform{}}).Plan(0, 6, 0, nil).Rank; got != nil {
		t.Fatalf("uniform topology ranked %v, want nil (keep default sweep)", got)
	}
	// A ranking inner order still contributes under a ring-less topology.
	costs := numa.ButterflyCosts().WithTopology(clustered2).WithExtraDelay(10)
	o := HierarchicalOrder{Topo: numa.Uniform{}, Inner: LocalityOrder{Model: costs}}
	inner := LocalityOrder{Model: costs}.Plan(0, 6, 0, nil).Rank
	if got := o.Plan(0, 6, 0, nil).Rank; !reflect.DeepEqual(got, inner) {
		t.Fatalf("uniform-topology rank = %v, want inner locality rank %v", got, inner)
	}
}

func TestHierarchicalSearcherExhaustsClusterBeforeCrossing(t *testing.T) {
	o := HierarchicalOrder{Topo: clustered2}
	s := o.Plan(0, 6, 1, nil).Searcher
	if s.Kind() != search.Hierarchical {
		t.Fatalf("Kind = %v, want Hierarchical", s.Kind())
	}
	w := &probeWorld{self: 0, sizes: make([]int, 6), max: 8}
	s.Search(w)
	// Default threshold = one full fruitless pass of the frontier {0,1},
	// then the far ring in order, then wrap to the full preference.
	want := []int{0, 1, 2, 3, 4, 5, 0, 1}
	if !reflect.DeepEqual(w.visited, want) {
		t.Fatalf("visit order = %v, want %v", w.visited, want)
	}
}

func TestHierarchicalSearcherFindsLocalWithoutCrossing(t *testing.T) {
	o := HierarchicalOrder{Topo: clustered2}
	s := o.Plan(4, 6, 1, nil).Searcher
	w := &probeWorld{self: 4, sizes: []int{9, 9, 9, 9, 0, 2}, max: 100}
	res := s.Search(w)
	if res.FoundAt != 5 || res.Examined != 2 {
		t.Fatalf("result = %+v, want steal from cluster mate 5 on probe 2", res)
	}
	for _, v := range w.visited {
		if clustered2.Distance(4, v) > 1 {
			t.Fatalf("crossed cluster boundary to %d with a non-empty mate available", v)
		}
	}
}

func TestHierarchicalThresholdLargerThanCluster(t *testing.T) {
	// Threshold 5 over a 2-segment frontier: the searcher laps its own
	// cluster before admitting the far ring.
	o := HierarchicalOrder{Topo: clustered2, Threshold: 5}
	s := o.Plan(0, 6, 1, nil).Searcher
	w := &probeWorld{self: 0, sizes: make([]int, 6), max: 7}
	s.Search(w)
	want := []int{0, 1, 0, 1, 0, 2, 3}
	if !reflect.DeepEqual(w.visited, want) {
		t.Fatalf("visit order = %v, want %v", w.visited, want)
	}
}

func TestHierarchicalThresholdNegativeEscalatesImmediately(t *testing.T) {
	// The flat ablation: every fruitless probe admits the next ring, so
	// the searcher reaches the far ring after a single local probe.
	o := HierarchicalOrder{Topo: clustered2, Threshold: -1}
	s := o.Plan(0, 6, 1, nil).Searcher
	w := &probeWorld{self: 0, sizes: make([]int, 6), max: 6}
	s.Search(w)
	if w.visited[1] != 2 {
		t.Fatalf("visit order = %v, want far ring admitted after one probe", w.visited)
	}
	// Every segment is still reached once the full preference cycles.
	seen := map[int]bool{}
	for _, v := range w.visited {
		seen[v] = true
	}
	for seg := 0; seg < 6; seg++ {
		if seg == 1 {
			continue // reached on the next wrap beyond this probe budget
		}
		if !seen[seg] {
			t.Fatalf("segment %d never probed in %v", seg, w.visited)
		}
	}
}

func TestHierarchicalUniformDelegatesToInner(t *testing.T) {
	o := HierarchicalOrder{Inner: search.Linear}
	s := o.Plan(0, 4, 1, nil).Searcher
	if s.Kind() != search.Linear {
		t.Fatalf("nil-topology searcher kind = %v, want delegation to linear", s.Kind())
	}
	if !(HierarchicalOrder{Inner: search.Tree}).Plan(0, 4, 1, nil).Tree {
		t.Fatal("nil-topology plan over a tree inner order asks for no tree")
	}
	if name := o.Name(); name != "hier-linear" {
		t.Fatalf("Name = %q", name)
	}
}

func TestHierarchicalRandomInnerIsSeededPermutation(t *testing.T) {
	o := HierarchicalOrder{Topo: clustered2, Inner: search.Random}
	a := o.Plan(0, 6, 7, nil).Rank
	b := o.Plan(0, 6, 7, nil).Rank
	c := o.Plan(0, 6, 8, nil).Rank
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different orders: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Logf("distinct seeds coincided (possible but unlikely): %v", a)
	}
	if a[0] != 0 {
		t.Fatalf("self not first: %v", a)
	}
	// Ring structure must survive the shuffle: cluster mate before any
	// far segment.
	if a[1] != 1 {
		t.Fatalf("cluster mate not in the first frontier: %v", a)
	}
}

func TestHierarchicalControllerTunesThreshold(t *testing.T) {
	o := HierarchicalOrder{Topo: clustered2}
	s := o.Plan(0, 6, 1, func(int) int { return 1 }).Searcher
	w := &probeWorld{self: 0, sizes: make([]int, 6), max: 3}
	s.Search(w)
	// Tuned threshold 1: one fruitless probe escalates, so the far ring
	// is admitted after probing self only.
	want := []int{0, 2, 3}
	if !reflect.DeepEqual(w.visited, want) {
		t.Fatalf("visit order = %v, want %v (threshold tuned to 1)", w.visited, want)
	}
}

func TestAdaptiveEscalationThreshold(t *testing.T) {
	a := NewAdaptive()
	if got := a.EscalationThreshold(4); got != 4 {
		t.Fatalf("fresh adaptive threshold = %d, want untouched base 4", got)
	}
	// Long searches (many probes per steal, no aborts) raise the batch
	// shift, which halves the escalation threshold.
	for i := 0; i < adaptWindow; i++ {
		a.Observe(Feedback{Stole: true, Examined: 10, Got: 1})
	}
	if got := a.EscalationThreshold(4); got != 2 {
		t.Fatalf("post-window threshold = %d, want 2 (shift 1)", got)
	}
	if got := a.EscalationThreshold(1); got != 1 {
		t.Fatalf("threshold floor = %d, want 1", got)
	}
	p := NewPerHandle()
	if got := p.EscalationThreshold(3); got != 3 {
		t.Fatalf("aggregate per-handle threshold = %d, want base", got)
	}
	if got := p.EscalationThreshold(0); got != 1 {
		t.Fatalf("aggregate per-handle threshold floor = %d, want 1", got)
	}
}

func TestNearestEmptiestZeroModelActsLikeEmptiest(t *testing.T) {
	g := GiftToNearestEmptiest{}
	sizes := []int{5, 3, 0, 7}
	got := g.Plan(0, 4).Direct(func(s int) int { return sizes[s] })
	if got != 2 {
		t.Fatalf("Direct = %d, want emptiest segment 2", got)
	}
}

func TestNearestEmptiestPrefersNearUnderHopCost(t *testing.T) {
	// Clusters of 2 over 6 segments with a heavy per-hop delay: segment 4
	// is empty but four hops away; the cluster mate holds 2. The add
	// should stay near — the far segment's emptiness cannot buy back
	// 3 extra hops of RemoteExtra.
	costs := numa.ButterflyCosts().WithTopology(clustered2).WithExtraDelay(1000)
	g := GiftToNearestEmptiest{Model: costs, Probes: -1}
	sizes := []int{3, 2, 9, 9, 0, 9}
	probed := 0
	got := g.Plan(0, 6).Direct(func(s int) int { probed++; return sizes[s] })
	if got != 1 {
		t.Fatalf("Direct = %d, want near segment 1 despite far empty segment", got)
	}
	if probed != 6 {
		t.Fatalf("probed %d segments, want all 6 under Probes=-1", probed)
	}
}

func TestNearestEmptiestCrossesWhenWorthIt(t *testing.T) {
	// With a negligible hop cost the far empty segment wins again.
	costs := numa.ButterflyCosts().WithTopology(clustered2)
	g := GiftToNearestEmptiest{Model: costs, Probes: -1}
	sizes := []int{3, 2, 9, 9, 0, 9}
	got := g.Plan(0, 6).Direct(func(s int) int { return sizes[s] })
	if got != 4 {
		t.Fatalf("Direct = %d, want far empty segment 4 under cheap hops", got)
	}
}

func TestNearestEmptiestProbeBudgetStaysNear(t *testing.T) {
	// Probe budget 2 under the clustered model: only the two cheapest
	// candidates (self and the cluster mate) are ever examined.
	costs := numa.ButterflyCosts().WithTopology(clustered2).WithExtraDelay(10)
	g := GiftToNearestEmptiest{Model: costs, Probes: 2}
	var probedSegs []int
	g.Plan(0, 6).Direct(func(s int) int { probedSegs = append(probedSegs, s); return 0 })
	if !reflect.DeepEqual(probedSegs, []int{0, 1}) {
		t.Fatalf("probed %v, want only the near cluster [0 1]", probedSegs)
	}
	// The default budget ranks by add cost with ring order breaking ties:
	// from segment 5 in clusters of 4, its own cluster in ring order. An
	// exhaustive budget probes the plain ring.
	c4 := numa.ButterflyCosts().WithTopology(numa.Clusters{Size: 4}).WithExtraDelay(10)
	if got := (GiftToNearestEmptiest{Model: c4}).Plan(5, 8).Candidates; !reflect.DeepEqual(got, []int{5, 6, 7, 4}) {
		t.Fatalf("default candidates from 5 = %v, want [5 6 7 4]", got)
	}
	if got := (GiftToNearestEmptiest{Model: c4, Probes: -1}).Plan(5, 8).Candidates; !reflect.DeepEqual(got, []int{5, 6, 7, 0, 1, 2, 3, 4}) {
		t.Fatalf("exhaustive candidates from 5 = %v, want the ring", got)
	}
}

func TestNearestEmptiestGiftSplit(t *testing.T) {
	gift := GiftToNearestEmptiest{}.Plan(0, 4).Gift
	if got := gift(8, 0); got != 0 {
		t.Fatalf("Gift(8,0) = %d, want 0", got)
	}
	if got := gift(8, 3); got != 8 {
		t.Fatalf("Gift(8,3) = %d, want whole batch", got)
	}
	g := GiftToNearestEmptiest{}
	if g.Name() != "near-emptiest" {
		t.Fatalf("Name = %q", g.Name())
	}
}
