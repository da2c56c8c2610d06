package core

import (
	"testing"

	"pools/internal/engine"
	"pools/internal/policy"
	"pools/internal/search"
)

// TestProportionalStealOnRealPool checks the real pool consults a
// non-default StealAmount: a GetN(4) against a remote victim of 40 steals
// exactly 4 under the proportional policy (steal-half would take 20).
func TestProportionalStealOnRealPool(t *testing.T) {
	p, err := New[int](Options{
		Segments: 4,
		Policies: policy.Set{Steal: policy.Proportional{}},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	producer := p.Handle(2)
	consumer := p.Handle(0)
	producer.PutAll(make([]int, 40))

	out := consumer.GetN(4)
	if len(out) != 4 {
		t.Fatalf("GetN(4) returned %d elements", len(out))
	}
	if got := p.SegmentLen(0); got != 0 {
		t.Fatalf("proportional steal parked %d elements locally, want 0", got)
	}
	if got := p.SegmentLen(2); got != 36 {
		t.Fatalf("victim left with %d elements, want 36", got)
	}
}

// TestAdaptiveControllerOnRealPool checks a pool wired with an adaptive
// set runs a produce/consume cycle and feeds the controller (the fraction
// moves off its starting point under sustained stealing).
func TestAdaptiveControllerOnRealPool(t *testing.T) {
	set, err := policy.Named("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New[int](Options{Segments: 2, Policies: set, Search: search.Linear})
	if err != nil {
		t.Fatal(err)
	}
	producer := p.Handle(1)
	consumer := p.Handle(0)
	producer.Register()
	consumer.Register()
	// Alternate a remote deposit with a consumer remove: every consumer
	// Get steals, which is maximal steal pressure on the controller.
	for i := 0; i < 200; i++ {
		producer.Put(i)
		if _, ok := consumer.Get(); !ok {
			t.Fatalf("Get %d failed with elements available", i)
		}
	}
	if f := set.Control.StealFraction(); f <= 0.5 {
		t.Fatalf("controller fraction = %v after sustained steal pressure, want > 0.5", f)
	}
}

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
		if got := p.pol.Order; got != (policy.Order{Kind: search.Linear}) {
			t.Errorf("%s: order = %#v, want policy.Order{Kind: search.Linear}", c.name, got)
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
