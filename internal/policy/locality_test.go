package policy

import (
	"testing"

	"pools/internal/numa"
	"pools/internal/search"
)

// clusteredModel returns a cost model with a 4-wide cluster topology and
// a large per-hop delay, the skewed geometry the locality order ranks
// under.
func clusteredModel() numa.CostModel {
	return numa.ButterflyCosts().WithTopology(numa.Clusters{Size: 4}).WithExtraDelay(1000)
}

// TestLocalityOrderRankSkewed checks the victim ranking under a skewed
// cost model: self first, then the in-cluster victims in ring order, then
// the far clusters.
func TestLocalityOrderRankSkewed(t *testing.T) {
	o := LocalityOrder{Model: clusteredModel()}
	rank := o.Plan(5, 16, 0, nil).Rank
	if len(rank) != 16 {
		t.Fatalf("rank has %d entries, want 16", len(rank))
	}
	if rank[0] != 5 {
		t.Fatalf("rank[0] = %d, want self (5)", rank[0])
	}
	// Positions 1..3 must be the rest of cluster {4,5,6,7}, in ring order
	// from self: 6, 7, 4.
	wantNear := []int{6, 7, 4}
	for i, want := range wantNear {
		if rank[1+i] != want {
			t.Fatalf("rank[%d] = %d, want %d (in-cluster victims first, ring tiebreak; rank %v)", 1+i, rank[1+i], want, rank)
		}
	}
	// Every segment appears exactly once.
	seen := map[int]bool{}
	for _, s := range rank {
		if seen[s] {
			t.Fatalf("segment %d appears twice in rank %v", s, rank)
		}
		seen[s] = true
	}
	// Far victims (everything outside cluster 1) fill the tail.
	for _, s := range rank[4:] {
		if s/4 == 1 {
			t.Fatalf("in-cluster victim %d ranked after far victims: %v", s, rank)
		}
	}
}

// TestLocalityOrderSearcher checks the planned searcher: ordered under a
// skewed model, the fallback algorithm under a victim-uniform one (the
// flat Butterfly), and tree-node allocation via the plan's Tree.
func TestLocalityOrderSearcher(t *testing.T) {
	skewed := LocalityOrder{Model: clusteredModel()}
	if s := skewed.Plan(2, 16, 1, nil).Searcher; s.Kind() != search.Ordered {
		t.Fatalf("skewed model searcher kind = %v, want ordered", s.Kind())
	}
	flat := LocalityOrder{Model: numa.ButterflyCosts().WithExtraDelay(500)}
	if s := flat.Plan(2, 16, 1, nil).Searcher; s.Kind() != search.Linear {
		t.Fatalf("flat model searcher kind = %v, want the linear fallback", s.Kind())
	}
	tree := LocalityOrder{Model: numa.ButterflyCosts(), Fallback: search.Tree}
	if s := tree.Plan(2, 16, 1, nil).Searcher; s.Kind() != search.Tree {
		t.Fatalf("fallback searcher kind = %v, want tree", s.Kind())
	}
	if !tree.Plan(2, 16, 1, nil).Tree {
		t.Fatal("LocalityOrder{Fallback: Tree} plan asks for no tree (nodes must be allocated)")
	}
	if skewed.Name() != "locality" || (LocalityOrder{Model: clusteredModel(), Fallback: search.Tree}).Plan(2, 16, 1, nil).Tree {
		t.Fatal("Name drifted, or a ranked plan asks for the fallback's tree")
	}
	// Two segments: the single remote victim is trivially uniform.
	if s := skewed.Plan(0, 2, 1, nil).Searcher; s.Kind() != search.Linear {
		t.Fatalf("two-segment searcher kind = %v, want linear fallback", s.Kind())
	}
	// The rank mirrors the fallback: nil under victim-uniform costs, so
	// ranked-sweep consumers (the keyed pool) keep their default order.
	if r := flat.Plan(2, 16, 1, nil).Rank; r != nil {
		t.Fatalf("flat model rank = %v, want nil", r)
	}
	if r := skewed.Plan(2, 16, 1, nil).Rank; r == nil {
		t.Fatal("skewed model rank = nil, want an order")
	}
}

// TestPerHandleIndependence checks the headline property: two handles fed
// opposite steal rates converge to different fractions, and neither
// disturbs the other.
func TestPerHandleIndependence(t *testing.T) {
	ph := NewPerHandle()
	thief := ph.Spawn(0)
	local := ph.Spawn(1)
	if ph.Spawn(0) != thief {
		t.Fatal("Spawn(0) returned a different instance on the second call")
	}
	for i := 0; i < 20*adaptWindow; i++ {
		thief.Observe(Feedback{Stole: true, Examined: 4, Got: 8})
		local.Observe(Feedback{Got: 1})
	}
	tf, lf := thief.StealFraction(), local.StealFraction()
	if tf != 1 {
		t.Fatalf("always-stealing handle fraction = %v, want 1", tf)
	}
	if lf >= 0.5 {
		t.Fatalf("never-stealing handle fraction = %v, want decayed below 0.5", lf)
	}
	// The thief's steal amount uses its own fraction.
	if got := thief.Amount(10, 1); got != 10 {
		t.Fatalf("thief Amount(10, 1) = %d, want the full victim", got)
	}
}

// TestPerHandleAggregate checks the pool-level view a PerHandle keeps:
// its name, and per-handle read-back of the spawned controllers.
func TestPerHandleAggregate(t *testing.T) {
	ph := NewPerHandle()
	if ph.Name() != "per-handle" {
		t.Fatalf("Name = %q", ph.Name())
	}
	if ph.Handle(3) != nil {
		t.Fatal("Handle(3) non-nil before any Spawn")
	}
	c := ph.Spawn(3)
	if ph.Handle(3) != c {
		t.Fatal("Handle(3) is not the controller Spawn(3) returned")
	}
}

// TestForHandle checks the resolution rule on defaulted sets, as pools
// see them: a handle's controller is what the set's Control spawns for
// it, and its steal amount is the set's Steal, or that controller when
// the set names none.
func TestForHandle(t *testing.T) {
	// Pool-wide adaptive: one shared controller, also the steal amount.
	ad, _ := Named("adaptive")
	ad = ad.WithDefaults()
	if ad.Steal != nil {
		t.Fatalf("WithDefaults filled Steal = %s under a Control", ad.Steal.Name())
	}
	ca, sa := ad.ForHandle(0)
	cb, sb := ad.ForHandle(1)
	if ca == nil || ca != cb || any(ca) != any(ad.Control) || any(sa) != any(ca) || any(sb) != any(ca) {
		t.Fatal("adaptive must resolve to the shared instance, as controller and steal amount, for every handle")
	}
	// Per-handle: distinct spawned controllers, each its handle's steal
	// amount.
	set, _ := Named("per-handle")
	set = set.WithDefaults()
	c0, s0 := set.ForHandle(0)
	c1, s1 := set.ForHandle(1)
	if c0 == c1 {
		t.Fatal("two handles resolved to the same controller under per-handle")
	}
	ph := set.Control.(*PerHandle)
	if c0 != ph.Handle(0) || c1 != ph.Handle(1) {
		t.Fatal("resolved controllers are not the spawned instances")
	}
	if any(c0) != any(s0) || any(c1) != any(s1) {
		t.Fatal("handle's steal amount is not its spawned controller")
	}
	// An explicit steal amount is kept beside a spawned controller.
	mixed := Set{Steal: One{}, Control: NewPerHandle()}.WithDefaults()
	cm, sm := mixed.ForHandle(0)
	if _, ok := sm.(One); !ok {
		t.Fatalf("explicit steal amount overridden: %T", sm)
	}
	if cm == nil {
		t.Fatal("spawning controller not resolved")
	}
	// No controller: steal-half.
	cp, sp := Set{}.WithDefaults().ForHandle(0)
	if cp != nil || sp == nil || sp.Name() != "steal-half" {
		t.Fatal("a set without a controller must resolve to steal-half and no controller")
	}
}

// TestGiftToEmptiest checks GiftToEmptiest's PlacePlan: Direct picks the
// emptiest probed candidate, ties keep the nearest, the probe budget is
// honored, and the plan's Gift law mirrors GiftAll's.
func TestGiftToEmptiest(t *testing.T) {
	sizes := []int{5, 3, 9, 0, 7, 2}
	size := func(s int) int { return sizes[s] }
	g := GiftToEmptiest{}
	// The zero value probes DefaultProbes (4) segments: from 0 it sees
	// {0,1,2,3} and finds the empty segment 3.
	if got := g.Plan(0, 6).Direct(size); got != 3 {
		t.Fatalf("Direct chose %d, want 3 (the empty segment)", got)
	}
	// From segment 4 the default window {4,5,0,1} misses segment 3; the
	// exhaustive variant (negative Probes) finds it.
	if got := g.Plan(4, 6).Direct(size); got != 5 {
		t.Fatalf("default-window Direct chose %d, want 5", got)
	}
	if got := (GiftToEmptiest{Probes: -1}).Plan(4, 6).Direct(size); got != 3 {
		t.Fatalf("exhaustive Direct chose %d, want 3", got)
	}
	// Probe budget: from segment 4, probing 2 segments sees only {4, 5}.
	lim := GiftToEmptiest{Probes: 2}
	if got := lim.Plan(4, 6).Direct(size); got != 5 {
		t.Fatalf("limited Direct chose %d, want 5", got)
	}
	// All-equal sizes: the adder's own segment wins the tie.
	flat := func(int) int { return 4 }
	if got := g.Plan(2, 6).Direct(flat); got != 2 {
		t.Fatalf("tie broke to %d, want self (2)", got)
	}
	probes := 0
	counting := func(s int) int { probes++; return sizes[s] }
	lim.Plan(0, 6).Direct(counting)
	if probes != 2 {
		t.Fatalf("limited Direct probed %d segments, want 2", probes)
	}
	if gift := g.Plan(0, 6).Gift; gift(7, 0) != 0 || gift(7, 2) != 7 {
		t.Fatal("GiftToEmptiest's Gift law must mirror GiftAll")
	}
	if g.Name() != "emptiest" {
		t.Fatalf("Name = %q", g.Name())
	}
}
