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
	// The aggregate reports the mean; the thief's steal amount uses its
	// own fraction, not the pool mean.
	if mean := ph.StealFraction(); mean <= lf || mean >= tf {
		t.Fatalf("aggregate fraction %v outside (%v, %v)", mean, lf, tf)
	}
	if amt, ok := thief.(StealAmount); !ok || amt.Amount(10, 1) != 10 {
		t.Fatal("thief's spawned controller is not a full-fraction StealAmount")
	}
}

// TestPerHandleAggregate checks the pool-level Controller/StealAmount
// view: fresh aggregates behave like steal-half, Observe is discarded,
// and BatchSize passes through.
func TestPerHandleAggregate(t *testing.T) {
	ph := NewPerHandle()
	if f := ph.StealFraction(); f != 0.5 {
		t.Fatalf("fresh aggregate fraction = %v, want 0.5", f)
	}
	if got := ph.Amount(9, 1); got != 5 {
		t.Fatalf("fresh aggregate Amount(9,1) = %d, want ceil(9/2) = 5", got)
	}
	if got := ph.Amount(4, 6); got != 4 {
		t.Fatalf("Amount(4,6) = %d, want clamped to 4", got)
	}
	for i := 0; i < 10*adaptWindow; i++ {
		ph.Observe(Feedback{Stole: true}) // discarded by design
	}
	if f := ph.StealFraction(); f != 0.5 {
		t.Fatalf("aggregate Observe moved the fraction to %v", f)
	}
	if got := ph.BatchSize(16); got != 16 {
		t.Fatalf("aggregate BatchSize(16) = %d, want 16", got)
	}
	if got := ph.BatchSize(0); got != 1 {
		t.Fatalf("aggregate BatchSize(0) = %d, want 1", got)
	}
	if ph.Name() != "per-handle" {
		t.Fatalf("Name = %q", ph.Name())
	}
	if ph.Handle(3) != nil {
		t.Fatal("Handle(3) non-nil before any Spawn")
	}
	ph.Spawn(3)
	if ph.Handle(3) == nil {
		t.Fatal("Handle(3) nil after Spawn")
	}
}

// TestForHandle checks the resolution rule: per-handle sets hand each
// handle its own spawned controller as both controller and steal amount;
// pool-wide sets pass through; a custom steal amount is never overridden
// by a spawned controller.
func TestForHandle(t *testing.T) {
	set, err := Named("per-handle")
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := set.ForHandle(0)
	c1, s1 := set.ForHandle(1)
	if c0 == c1 {
		t.Fatal("two handles resolved to the same controller under per-handle")
	}
	if any(c0) != any(s0) || any(c1) != any(s1) {
		t.Fatal("handle's steal amount is not its spawned controller")
	}
	ad, _ := Named("adaptive")
	ca, sa := ad.ForHandle(0)
	cb, _ := ad.ForHandle(1)
	if ca != cb || any(ca) != any(sa) {
		t.Fatal("pool-wide adaptive must resolve to the shared instance for every handle")
	}
	// Custom steal + spawning controller: the steal amount stays.
	mixed := Set{Steal: One{}, Control: NewPerHandle()}
	cm, sm := mixed.ForHandle(0)
	if _, ok := sm.(One); !ok {
		t.Fatalf("explicit steal amount overridden: %T", sm)
	}
	if cm == nil {
		t.Fatal("spawning controller not resolved")
	}
	// No controller at all: everything passes through.
	plain := Set{Steal: Half{}}
	cp, sp := plain.ForHandle(0)
	if cp != nil || sp.Name() != "steal-half" {
		t.Fatal("plain set mangled by ForHandle")
	}
}

// TestGiftToEmptiest checks the Director law: the emptiest probed segment
// wins, ties keep the nearest, the probe budget is honored, and
// the Gift law mirrors GiftAll.
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
