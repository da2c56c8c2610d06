package pools_test

// Hot-path allocation guarantees: the local Put/Get fast path — and the
// steal path once its reusable buffers are warm — performs zero heap
// allocations per operation, across the configurations that decorate the
// hot path (stats + topology accounting, directed placements, keyed
// buckets). BenchmarkGetHotPath in bench_test.go reports the same paths
// under the benchmark gate; these tests make the 0 allocs/op contract a
// hard failure instead of a number to eyeball.

import (
	"slices"
	"testing"

	"pools"
	"pools/internal/metrics"
	"pools/internal/trace"
)

// requireZeroAllocs runs f through testing.AllocsPerRun and fails on any
// per-call allocation.
func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm caches and reusable buffers outside the measurement
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %.2f allocs/op, want 0", name, avg)
	}
}

func TestHotPathAllocFree(t *testing.T) {
	// The default pool: plain local Put/Get.
	p, err := pools.New[int](pools.Options{Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handle(0)
	requireZeroAllocs(t, "core local Put/Get", func() {
		h.Put(1)
		if _, ok := h.Get(); !ok {
			t.Fatal("local Get missed")
		}
	})

	// Stats and topology accounting on: the probe classification uses the
	// precomputed masks, not per-probe interface calls.
	ps, err := pools.New[int](pools.Options{
		Segments: 4, CollectStats: true, Topology: pools.ClusterTopology{Size: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := ps.Handle(0)
	requireZeroAllocs(t, "core stats+topology Put/Get", func() {
		hs.Put(1)
		hs.Get()
	})
	// Every stats-on operation is counted; about one in 64 is timed
	// and lands in the per-op latency histogram (three atomic adds into a
	// fixed bucket array — covered by the 0 allocs/op assertion above).
	// Confirm both are visible on the merged pool stats.
	if st := ps.Stats(); st.OpCount() == 0 || st.OpLat.N() == 0 {
		t.Errorf("stats-on pool counted %d ops and timed %d", st.OpCount(), st.OpLat.N())
	}
	// And the histogram itself, bare: Record must stay allocation-free at
	// any magnitude, including the saturating top bucket.
	var hist metrics.LatencyHist
	v := int64(1)
	requireZeroAllocs(t, "LatencyHist.Record", func() {
		hist.Record(v)
		v <<= 1
	})

	// A directed placement probes sizes through the engine's cached
	// closure and scores the candidates its plan fixed when the pool was
	// built: no per-Put closure, candidate or cost allocation.
	costs := pools.ButterflyCosts().WithTopology(pools.ClusterTopology{Size: 4}).WithExtraDelay(10)
	for _, c := range []struct {
		name     string
		segments int
		place    pools.Placement
	}{
		{"core director Put/Get", 4, pools.EmptiestPlacement{}},
		{"core near-emptiest Put/Get", 16, pools.NearestEmptiestPlacement{Model: costs}},
		{"core tenant-fair Put/Get", 16, pools.TenantFairPlacement{Map: pools.EvenTenants(16, 4)}},
	} {
		pd, err := pools.New[int](pools.Options{
			Segments: c.segments, Policies: pools.PolicySet{Place: c.place},
		})
		if err != nil {
			t.Fatal(err)
		}
		hd := pd.Handle(0)
		requireZeroAllocs(t, c.name, func() {
			hd.Put(1)
			for {
				if _, ok := hd.Get(); !ok {
					break
				}
			}
		})
	}

	// The steal path: the victim's share is reserved into the handle's
	// reusable buffer, so a warm Get-with-steal does not allocate either.
	pv, err := pools.New[int](pools.Options{Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	victim, thief := pv.Handle(1), pv.Handle(0)
	for i := 0; i < 1<<14; i++ {
		victim.Put(i)
	}
	thief.Get() // warm the steal buffer
	requireZeroAllocs(t, "core steal Get", func() {
		if _, ok := thief.Get(); !ok {
			t.Fatal("steal Get missed")
		}
	})

	// Flight recorder on: the local Put/Get path records nothing (only a
	// search's outcome reaches the recorder), so the traced hot path keeps
	// the 0 allocs/op contract and leaves the ring's protocol history in
	// place. Handle 1 steals from handle 0 first; its reserve_transfer
	// must survive the measured loop (the tracing-off side of the contract
	// is every other case in this test, all built with TraceBuf 0).
	pt, err := pools.New[int](pools.Options{
		Segments: 4, CollectStats: true, Topology: pools.ClusterTopology{Size: 2},
		TraceBuf: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	stealFromHandle0(t, pt)
	ht := pt.Handle(0)
	held := pt.Tracer(0).Len()
	requireZeroAllocs(t, "core traced Put/Get", func() {
		ht.Put(1)
		if _, ok := ht.Get(); !ok {
			t.Fatal("traced Get missed")
		}
	})
	requireTraceKept(t, pt, held)

	// Keyed local Put/Get, including the drain-to-empty cycle: the spare
	// bucket cache keeps a hot class from allocating a fresh bucket every
	// time it empties and refills.
	kp, err := pools.NewKeyed[string, int](pools.KeyedOptions{Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	kh := kp.Handle(0)
	requireZeroAllocs(t, "keyed local Put/Get", func() {
		kh.Put("hot", 1)
		if _, ok := kh.Get("hot"); !ok {
			t.Fatal("keyed Get missed")
		}
	})

	// Keyed steals, class-specific and any-class: the bucket share is
	// reserved into the handle's reusable buffer and the one element
	// returned passes through its one-slot output, so a warm steal does
	// not allocate. Each measured call steals a fresh element from the
	// victim and leaves the thief's segment empty again.
	kv, err := pools.NewKeyed[string, int](pools.KeyedOptions{Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	kvictim, kthief := kv.Handle(1), kv.Handle(0)
	requireZeroAllocs(t, "keyed steal Get", func() {
		kvictim.Put("hot", 1)
		if _, ok := kthief.Get("hot"); !ok {
			t.Fatal("keyed steal Get missed")
		}
	})
	requireZeroAllocs(t, "keyed steal GetAny", func() {
		kvictim.Put("hot", 1)
		if _, _, ok := kthief.GetAny(); !ok {
			t.Fatal("keyed steal GetAny missed")
		}
	})
}

// stealFromHandle0 has handle 1 steal the only element of handle 0's
// segment, so handle 1's flight recorder holds one steal and both
// segments are left empty, as an untraced hot-path loop finds them.
func stealFromHandle0(tb testing.TB, p *pools.Pool[int]) {
	tb.Helper()
	p.Handle(0).Put(0)
	if _, ok := p.Handle(1).Get(); !ok {
		tb.Fatal("handle 1 found nothing to steal")
	}
}

// requireTraceKept fails unless handle 0's recorder still holds exactly
// held events (its owner path recorded nothing) and handle 1's timeline
// still holds the reserve_transfer of the steal made by stealFromHandle0.
func requireTraceKept(tb testing.TB, p *pools.Pool[int], held int) {
	tb.Helper()
	if n := p.Tracer(0).Len(); n != held {
		tb.Fatalf("handle 0's owner path recorded %d events, want 0", n-held)
	}
	if !slices.ContainsFunc(p.Tracer(1).Timeline().Events, func(e trace.Event) bool { return e.Kind == trace.ReserveTransfer }) {
		tb.Fatal("handle 1's steal left no reserve_transfer on its timeline")
	}
}
