package core

import (
	"sync"
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
)

// TestPerHandleControllersIndependent drives two consumer handles with
// opposite steal pressure on a real pool and checks their controllers
// converge to different fractions — the property the pool-wide adaptive
// set cannot have.
func TestPerHandleControllersIndependent(t *testing.T) {
	set, err := policy.Named("per-handle")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New[int](Options{Segments: 3, Policies: set, Search: search.Linear})
	if err != nil {
		t.Fatal(err)
	}
	producer := p.Handle(2)
	thief := p.Handle(0) // always steals: its segment is never fed
	local := p.Handle(1) // always removes locally
	for _, h := range p.handles {
		h.Register()
	}
	for i := 0; i < 400; i++ {
		// The local handle's put/get pair completes before the thief
		// searches, so the thief's linear walk only ever finds the
		// producer's segment and every thief remove is a steal.
		local.Put(i)
		if _, ok := local.Get(); !ok {
			t.Fatalf("local Get %d failed with elements available", i)
		}
		producer.Put(i)
		if _, ok := thief.Get(); !ok {
			t.Fatalf("thief Get %d failed with elements available", i)
		}
	}
	tf := thief.Controller().StealFraction()
	lf := local.Controller().StealFraction()
	if tf <= lf {
		t.Fatalf("thief fraction %v <= local fraction %v: controllers are not independent", tf, lf)
	}
	if tf <= 0.5 {
		t.Fatalf("thief fraction %v did not rise under sustained stealing", tf)
	}
	if lf >= 0.5 {
		t.Fatalf("local fraction %v did not decay under pure local removes", lf)
	}
	if producer.Controller() == thief.Controller() {
		t.Fatal("two handles share one controller under the per-handle set")
	}
	if thief.BatchSize(4) < 4 {
		t.Fatalf("BatchSize(4) = %d, want >= 4", thief.BatchSize(4))
	}
}

// TestLocalityOrderOnRealPool checks the real pool runs a cost-ranked
// searcher: with victims in the near and the far cluster, the steal takes
// the near one even though the far one is closer in ring distance.
func TestLocalityOrderOnRealPool(t *testing.T) {
	model := numa.ButterflyCosts().WithTopology(numa.Clusters{Size: 4}).WithExtraDelay(100)
	p, err := New[int](Options{
		Segments: 8,
		Policies: policy.Set{Order: policy.LocalityOrder{Model: model}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Consumer owns segment 1 (cluster {0..3}). Segment 4 is one ring hop
	// beyond 3 but in the far cluster; segment 3 is in-cluster.
	p.Handle(4).PutAll(make([]int, 10))
	p.Handle(3).PutAll(make([]int, 10))
	consumer := p.Handle(1)
	for i := range p.handles {
		p.Handle(i).Register()
	}
	if _, ok := consumer.Get(); !ok {
		t.Fatal("Get failed with 20 elements pooled")
	}
	if got := p.SegmentLen(3); got != 5 {
		t.Fatalf("in-cluster victim left with %d elements, want 5 (steal-half took the near victim)", got)
	}
	if got := p.SegmentLen(4); got != 10 {
		t.Fatalf("far victim lost elements (left %d), want untouched 10", got)
	}
}

// TestEmptiestPlacementOnRealPool checks Put and PutAll land on the
// emptiest segment when the pool runs the gift-to-emptiest placement.
func TestEmptiestPlacementOnRealPool(t *testing.T) {
	p, err := New[int](Options{
		Segments: 4,
		Policies: policy.Set{Place: policy.GiftToEmptiest{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Handle(0).PutAll(make([]int, 6)) // all segments empty: stays local
	if got := p.SegmentLen(0); got != 6 {
		t.Fatalf("first batch left %d elements on segment 0, want 6 (all-empty tie keeps local)", got)
	}
	p.Handle(0).Put(7) // segments 1..3 empty: 1 is the nearest emptiest
	if got := p.SegmentLen(1); got != 1 {
		t.Fatalf("single add landed elsewhere (segment 1 holds %d), want directed to the emptiest", got)
	}
	p.Handle(1).PutAll(make([]int, 3)) // 2 and 3 empty: 2 is nearest
	if got := p.SegmentLen(2); got != 3 {
		t.Fatalf("batch landed elsewhere (segment 2 holds %d), want 3", got)
	}
	if p.Len() != 10 {
		t.Fatalf("Len = %d, want 10", p.Len())
	}
}

// TestEmptiestPlacementUnderConcurrentMutation races four producers
// placing via gift-to-emptiest against four consumers; the race detector
// guards the probe path, and conservation plus a balance check validate
// the behavior. (Probed sizes may be stale by the time the add lands —
// the policy is best-effort by design — but every element must still be
// accounted for.)
func TestEmptiestPlacementUnderConcurrentMutation(t *testing.T) {
	const segs = 8
	const perWorker = 300
	p, err := New[int](Options{
		Segments: segs,
		Policies: policy.Set{Place: policy.GiftToEmptiest{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < segs; i++ {
		p.Handle(i).Register()
	}
	var wg sync.WaitGroup
	var consumed [4]int
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			h := p.Handle(w)
			for i := 0; i < perWorker; i++ {
				if i%3 == 0 {
					h.PutAll([]int{i, i + 1})
				} else {
					h.Put(i)
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			h := p.Handle(4 + w)
			for i := 0; i < perWorker/2; i++ {
				if _, ok := h.Get(); ok {
					consumed[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	// Per producer: i%3==0 fires 100 times (PutAll of 2), the other 200
	// iterations Put 1 — 400 elements each, 1600 total.
	wantAdded := 4 * 400
	got := p.Len()
	total := got
	for w := range consumed {
		total += consumed[w]
	}
	if total != wantAdded {
		t.Fatalf("conservation violated: %d pooled + consumed, want %d", total, wantAdded)
	}
}
