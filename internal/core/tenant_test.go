package core

import (
	"testing"

	"pools/internal/policy"
)

// TestTenantStealClassification checks the end-to-end interference
// accounting: with a tenant-aware placement on the set, every successful
// steal is classified by whether the victim segment belongs to the
// thief's own tenant, and the foreign fraction surfaces as
// PoolStats.StealInterference.
func TestTenantStealClassification(t *testing.T) {
	tm := policy.EvenTenants(4, 2) // tenant 0: segments 0,1; tenant 1: 2,3
	p, err := New[int](Options{
		Segments:     4,
		CollectStats: true,
		Policies:     policy.Set{Place: policy.TenantFair{Map: tm, Probes: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	thief := p.Handle(0)
	sibling := p.Handle(1)  // same tenant as the thief
	stranger := p.Handle(2) // other tenant

	// Same-tenant steal: only segment 1 holds elements, so the thief's
	// linear walk steals from its own tenant.
	sibling.Put(1)
	sibling.Put(2)
	if _, ok := thief.Get(); !ok {
		t.Fatal("same-tenant steal failed")
	}
	st := p.Stats()
	if st.TenantSteals != 1 || st.ForeignSteals != 0 {
		t.Fatalf("after own-tenant steal: TenantSteals=%d ForeignSteals=%d, want 1,0",
			st.TenantSteals, st.ForeignSteals)
	}

	// Drain the remainder of the first transfer so the next Get must
	// search again, then make the only stocked segment a foreign one.
	for {
		if _, ok := thief.Get(); !ok {
			break
		}
	}
	stranger.Put(3)
	stranger.Put(4)
	if _, ok := thief.Get(); !ok {
		t.Fatal("cross-tenant steal failed")
	}
	st = p.Stats()
	if st.ForeignSteals != 1 {
		t.Fatalf("after foreign steal: ForeignSteals=%d, want 1", st.ForeignSteals)
	}
	if got := st.StealInterference(); got <= 0 || got > 1 {
		t.Errorf("StealInterference = %v, want in (0,1]", got)
	}

	// Every successful steal is classified (TenantSteals is the
	// denominator: all classified steals), and a local remove classifies
	// nothing.
	thief.Put(5)
	thief.Get()
	after := p.Stats()
	if after.TenantSteals != after.Steals {
		t.Errorf("classified %d of %d steals", after.TenantSteals, after.Steals)
	}
	if after.ForeignSteals != st.ForeignSteals {
		t.Errorf("local remove changed foreign classification: %d -> %d",
			st.ForeignSteals, after.ForeignSteals)
	}
}

// TestTenantFairPlacementConfinesAdds checks the placement side on the
// real pool: a tenant's adds land only inside its own segment block even
// when another tenant's segments are emptier.
func TestTenantFairPlacementConfinesAdds(t *testing.T) {
	tm := policy.EvenTenants(4, 2)
	p, err := New[int](Options{
		Segments: 4,
		Policies: policy.Set{Place: policy.TenantFair{Map: tm, Probes: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handle(0)
	for i := 0; i < 40; i++ {
		h.Put(i)
	}
	if n := p.SegmentLen(2) + p.SegmentLen(3); n != 0 {
		t.Errorf("%d elements leaked into the foreign tenant's segments", n)
	}
	if n := p.SegmentLen(0) + p.SegmentLen(1); n != 40 {
		t.Errorf("own tenant holds %d elements, want all 40", n)
	}
}
