package keyed

import (
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
)

// TestKeyedPoliciesSteal checks Options.Policies.Steal drives bucket
// steals.
func TestKeyedPoliciesSteal(t *testing.T) {
	p, err := New[string, int](Options{
		Segments: 4,
		Policies: policy.Set{Steal: policy.One{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Handle(2).PutAll("k", make([]int, 10))
	if _, ok := p.Handle(0).Get("k"); !ok {
		t.Fatal("Get failed with 10 elements pooled")
	}
	// Steal-one moved exactly 1: the victim keeps 9 and nothing parked.
	if got := p.LenKey("k"); got != 9 {
		t.Fatalf("pool holds %d k-elements after a steal-one Get, want 9", got)
	}
}

// TestKeyedPerHandleControl checks per-handle controllers tune from the
// keyed pool's feedback: a handle that always steals rises, one that
// always removes locally decays, independently.
func TestKeyedPerHandleControl(t *testing.T) {
	set, err := policy.Named("per-handle")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New[string, int](Options{Segments: 3, Policies: set})
	if err != nil {
		t.Fatal(err)
	}
	producer := p.Handle(2)
	thief := p.Handle(0)
	local := p.Handle(1)
	for i := 0; i < 400; i++ {
		local.Put("k", i)
		if _, ok := local.Get("k"); !ok {
			t.Fatalf("local Get %d failed", i)
		}
		producer.Put("k", i)
		if _, ok := thief.Get("k"); !ok {
			t.Fatalf("thief Get %d failed", i)
		}
	}
	ph := set.Control.(*policy.PerHandle)
	tf := ph.Handle(0).StealFraction()
	lf := ph.Handle(1).StealFraction()
	if tf <= 0.5 || lf >= 0.5 {
		t.Fatalf("keyed per-handle fractions thief=%v local=%v, want >0.5 and <0.5", tf, lf)
	}
}

// TestKeyedRankedSweep checks a Ranker victim order reorders the sweep:
// under a clustered cost model the consumer steals from the in-cluster
// victim even when a far victim is nearer in ring distance.
func TestKeyedRankedSweep(t *testing.T) {
	model := numa.ButterflyCosts().WithTopology(numa.Clusters{Size: 4}).WithExtraDelay(100)
	p, err := New[string, int](Options{
		Segments: 8,
		Policies: policy.Set{Order: policy.LocalityOrder{Model: model}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Consumer owns segment 1 (cluster {0..3}); victims at 4 (far
	// cluster, ring-adjacent to 3) and 3 (in-cluster).
	p.Handle(4).PutAll("k", make([]int, 10))
	p.Handle(3).PutAll("k", make([]int, 10))
	out := p.Handle(1).GetN("k", 2)
	if len(out) != 2 {
		t.Fatalf("GetN returned %d elements, want 2", len(out))
	}
	near, far := 0, 0
	for i := 0; i < 8; i++ {
		s := &p.segs[i]
		s.mu.Lock()
		if b := s.buckets["k"]; b != nil && i == 3 {
			near = b.Len()
		} else if b != nil && i == 4 {
			far = b.Len()
		}
		s.mu.Unlock()
	}
	if far != 10 {
		t.Fatalf("far victim lost elements (left %d), want untouched 10", far)
	}
	if near != 5 {
		t.Fatalf("in-cluster victim left with %d, want 5 (steal-half from the ranked victim)", near)
	}
}

// TestKeyedEmptiestPlacement checks a Director placement steers keyed
// adds toward the emptiest segment.
func TestKeyedEmptiestPlacement(t *testing.T) {
	p, err := New[string, int](Options{
		Segments: 4,
		Policies: policy.Set{Place: policy.GiftToEmptiest{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handle(0)
	h.PutAll("a", make([]int, 5)) // all empty: stays local (tie keeps self)
	h.Put("a", 1)                 // segment 1 is now the nearest emptiest
	seg1 := &p.segs[1]
	seg1.mu.Lock()
	got := seg1.total
	seg1.mu.Unlock()
	if got != 1 {
		t.Fatalf("directed keyed add landed elsewhere (segment 1 holds %d), want 1", got)
	}
	if p.Len() != 6 {
		t.Fatalf("Len = %d, want 6", p.Len())
	}
}
