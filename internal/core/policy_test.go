package core

import (
	"testing"

	"pools/internal/engine"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
)

// TestGiftOutPlacements checks the Placement policies split batches among
// hungry mailboxes as specified: gift-one delivers one element per hungry
// searcher, gift-all splits the whole batch across them.
func TestGiftOutPlacements(t *testing.T) {
	build := func(place policy.Placement) *Pool[int] {
		p, err := New[int](Options{
			Segments: 4,
			Policies: policy.Set{Place: place},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	items := []int{1, 2, 3, 4, 5}

	p := build(policy.GiftOne{})
	p.boxes[1].hungry.Store(true)
	p.boxes[3].hungry.Store(true)
	if got := p.giftOut(0, items); got != 2 {
		t.Fatalf("gift-one delivered %d of 5 with 2 hungry, want 2", got)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d after gift-one delivery, want 2", p.Len())
	}

	p = build(policy.GiftAll{})
	p.boxes[1].hungry.Store(true)
	p.boxes[3].hungry.Store(true)
	if got := p.giftOut(0, items); got != 5 {
		t.Fatalf("gift-all delivered %d of 5 with 2 hungry, want 5", got)
	}
	g1, ok1 := p.boxes[1].tryTake()
	g3, ok3 := p.boxes[3].tryTake()
	if !ok1 || !ok3 || g1.count()+g3.count() != 5 {
		t.Fatalf("gift-all split = %d + %d elements, want 5 total", g1.count(), g3.count())
	}

	p = build(policy.GiftHalf{})
	p.boxes[2].hungry.Store(true)
	if got := p.giftOut(0, items); got != 3 {
		t.Fatalf("gift-half delivered %d of 5, want ceil(5/2) = 3", got)
	}

	// No hungry searchers: nothing is delivered under any placement.
	p = build(policy.GiftAll{})
	if got := p.giftOut(0, items); got != 0 {
		t.Fatalf("delivered %d with nobody hungry", got)
	}
}

// TestGiftsInFlightHoldsOffAbort checks the abort rule does not certify
// emptiness while a batch gift sits banked in a still-searching process's
// mailbox: the elements are invisible to probes but about to surface.
func TestGiftsInFlightHoldsOffAbort(t *testing.T) {
	p, err := New[int](Options{Segments: 2, Policies: policy.Set{Place: policy.GiftAll{}}})
	if err != nil {
		t.Fatal(err)
	}
	p.Handle(0).Register()
	p.Handle(1).Register()
	p.boxes[1].hungry.Store(true)
	if got := p.giftOut(0, make([]int, 5)); got != 5 {
		t.Fatalf("giftOut delivered %d, want 5", got)
	}

	// Handle 0 has covered the pool (both segments probed empty) with no
	// version change: without gifts the staleness rule would abort. The
	// rule is the same engine.Coverage instance the handle's searches
	// consult, built over the pool's coverage evidence.
	cov := engine.NewCoverage(2, coverageState[int]{p})
	cov.Begin(1)
	cov.SawEmpty(0)
	cov.SawEmpty(1)
	if cov.Aborted() {
		t.Fatal("search aborted while a hungry searcher held a banked batch gift")
	}
	// The gift guard must also outrank the all-searching livelock rule:
	// the gift's owner is itself one of the searchers, so lookers == open
	// holds exactly while the gift is in flight.
	p.lookers.Add(2)
	if cov.Aborted() {
		t.Fatal("all-searching rule certified emptiness over an in-flight batch gift")
	}
	p.lookers.Add(-2)
	// Once the owner's search ends (hunger cleared), a stranded gift no
	// longer blocks: that is the paper's accepted give/abort race, and it
	// surfaces on the owner's next remove.
	p.boxes[1].hungry.Store(false)
	if !cov.Aborted() {
		t.Fatal("covered search failed to abort with no gift in flight")
	}
}

// TestPolicyResolution checks how New fills Options.Policies: nil slots
// take the paper defaults, and mailboxes exist only under a placement
// that can gift. The nil-mailbox cases matter beyond configuration: the
// zero-overhead owner path skips all gift traffic on p.boxes == nil.
func TestPolicyResolution(t *testing.T) {
	cases := []struct {
		name         string
		pol          policy.Set
		steal, place string
		boxes        bool
	}{
		{"zero value", policy.Set{}, "steal-half", "local", false},
		{"explicit local", policy.Set{Place: policy.Local{}}, "steal-half", "local", false},
		{"gift-all", policy.Set{Place: policy.GiftAll{}}, "steal-half", "gift-all", true},
		{"tenant-fair", policy.Set{Place: policy.TenantFair{Map: policy.EvenTenants(3, 3)}}, "steal-half", "tenant-fair", false},
		{"steal-one", policy.Set{Steal: policy.One{}}, "steal-one", "local", false},
	}
	for _, c := range cases {
		const segs = 3
		p, err := New[int](Options{Segments: segs, Policies: c.pol})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := p.pol.Steal.Name(); got != c.steal {
			t.Errorf("%s: steal = %q, want %q", c.name, got, c.steal)
		}
		if got := p.pol.Order; got != search.Linear {
			t.Errorf("%s: order = %#v, want search.Linear", c.name, got)
		}
		if got := p.pol.Place.Name(); got != c.place {
			t.Errorf("%s: place = %q, want %q", c.name, got, c.place)
		}
		if c.boxes && len(p.boxes) != segs {
			t.Errorf("%s: %d mailboxes, want %d", c.name, len(p.boxes), segs)
		}
		if !c.boxes && p.boxes != nil {
			t.Errorf("%s: mailboxes allocated under a non-gifting placement", c.name)
		}
	}
}

// TestTreeNodesFollowOrder checks the tree's round counters are allocated
// exactly when the resolved victim order runs Manber's tree, bare or
// reached through a wrapper, and that a steal under each order completes
// (a tree search over unallocated counters would index out of range).
func TestTreeNodesFollowOrder(t *testing.T) {
	flat := numa.ButterflyCosts() // victim-uniform: LocalityOrder falls back
	cases := []struct {
		name  string
		order policy.VictimOrder
		kind  search.Kind // the searcher every handle runs
	}{
		{"nil", nil, search.Linear},
		{"linear", search.Linear, search.Linear},
		{"random", search.Random, search.Random},
		{"tree", search.Tree, search.Tree},
		{"locality-linear", policy.LocalityOrder{Model: flat}, search.Linear},
		{"locality-tree", policy.LocalityOrder{Model: flat, Fallback: search.Tree}, search.Tree},
		{"hier-random", policy.HierarchicalOrder{Inner: search.Random}, search.Random},
		{"hier-tree", policy.HierarchicalOrder{Inner: search.Tree}, search.Tree},
	}
	for _, c := range cases {
		const segs = 4
		p := newTestPool(t, Options{Segments: segs, Policies: policy.Set{Order: c.order}, CollectStats: true})
		wantNodes := 0
		if c.kind == search.Tree {
			wantNodes = search.NumTreeNodes(segs)
		}
		if n := p.tree.Len(); n != wantNodes {
			t.Errorf("%s: %d tree nodes, want %d", c.name, n, wantNodes)
		}
		if k := p.handles[0].eng.Plan().Searcher.Kind(); k != c.kind {
			t.Errorf("%s: searcher kind = %v, want %v", c.name, k, c.kind)
		}
		producer := p.Handle(3)
		for i := 0; i < 6; i++ {
			producer.Put(i)
		}
		consumer := p.Handle(0)
		if _, ok := consumer.Get(); !ok {
			t.Fatalf("%s: Get failed with elements present", c.name)
		}
		if st := consumer.Stats(); st.Steals != 1 {
			t.Errorf("%s: Steals = %d, want 1", c.name, st.Steals)
		}
	}
}

// TestTryGetLocalFeedsController checks that TryGetLocal's hits reach the
// controller as local hits, as Get's do: two adaptive windows (16 removes
// each) of nothing but local hits must lower the steal fraction.
func TestTryGetLocalFeedsController(t *testing.T) {
	ctl := policy.NewAdaptive()
	p := newTestPool(t, Options{Segments: 2, Policies: policy.Set{Control: ctl}})
	h := p.Handle(0)
	before := ctl.StealFraction()
	for i := range 2 * 16 {
		h.Put(i)
		if _, ok := h.TryGetLocal(); !ok {
			t.Fatalf("TryGetLocal %d missed its own Put", i)
		}
	}
	if after := ctl.StealFraction(); after >= before {
		t.Errorf("steal fraction %v after 32 local hits, want below %v", after, before)
	}
}
