package core

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"pools/internal/engine"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/trace"
)

func newTestPool(t *testing.T, opts Options) *Pool[int] {
	t.Helper()
	p, err := New[int](opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	cases := []Options{
		{Segments: 0},
		{Segments: -1},
		{Segments: 4, SegmentCap: -1},
		// Malformed victim orders: no paper algorithm behind the kind.
		{Segments: 4, Policies: policy.Set{Order: search.Kind(9)}},
		{Segments: 4, Policies: policy.Set{Order: search.Kind(0)}},
		{Segments: 4, Policies: policy.Set{Order: search.Ordered}},
		{Segments: 4, Policies: policy.Set{Order: search.Hierarchical}},
		{Segments: 4, Policies: policy.Set{Order: policy.LocalityOrder{Fallback: 9}}},
		{Segments: 4, Policies: policy.Set{Order: policy.HierarchicalOrder{Inner: search.Kind(9)}}},
	}
	for i, o := range cases {
		if _, err := New[int](o); !errors.Is(err, ErrBadOptions) {
			t.Errorf("case %d: err = %v, want ErrBadOptions", i, err)
		}
	}
}

func TestDefaultSearchIsLinear(t *testing.T) {
	p := newTestPool(t, Options{Segments: 4})
	if k := p.handles[0].eng.Plan().Searcher.Kind(); k != search.Linear {
		t.Fatalf("default search = %v, want linear", k)
	}
}

func TestPutGetLocal(t *testing.T) {
	for _, kind := range search.Kinds() {
		p := newTestPool(t, Options{Segments: 4, Policies: policy.Set{Order: kind}})
		h := p.Handle(0)
		h.Put(42)
		h.Put(43)
		if p.Len() != 2 {
			t.Fatalf("%v: Len = %d", kind, p.Len())
		}
		v, ok := h.Get()
		if !ok || v != 43 {
			t.Fatalf("%v: Get = (%d,%v)", kind, v, ok)
		}
		v, ok = h.Get()
		if !ok || v != 42 {
			t.Fatalf("%v: Get = (%d,%v)", kind, v, ok)
		}
	}
}

func TestGetStealsFromRemoteSegment(t *testing.T) {
	for _, kind := range search.Kinds() {
		p := newTestPool(t, Options{Segments: 8, Policies: policy.Set{Order: kind}, CollectStats: true})
		producer := p.Handle(5)
		for i := 0; i < 10; i++ {
			producer.Put(i)
		}
		consumer := p.Handle(0)
		v, ok := consumer.Get()
		if !ok {
			t.Fatalf("%v: Get failed with elements present", kind)
		}
		if v < 0 || v > 9 {
			t.Fatalf("%v: Get returned unknown element %d", kind, v)
		}
		st := consumer.Stats()
		if st.Steals != 1 {
			t.Fatalf("%v: Steals = %d, want 1", kind, st.Steals)
		}
		if st.ElementsStolen.Mean() != 5 {
			t.Fatalf("%v: stole %v elements, want 5", kind, st.ElementsStolen.Mean())
		}
		// Half the victim's elements moved to the consumer's segment
		// (one was consumed).
		if got := p.SegmentLen(0); got != 4 {
			t.Fatalf("%v: consumer segment has %d, want 4", kind, got)
		}
		if got := p.SegmentLen(5); got != 5 {
			t.Fatalf("%v: victim segment has %d, want 5", kind, got)
		}
	}
}

// TestTraceKeepsStealAcrossHotOwnerPath checks that the flight recorder
// holds protocol history, not owner traffic: after one steal, 10 000
// local Put/Get pairs on the thief leave its 8-slot ring untouched, so
// the steal's reserve_transfer survives and Dropped does not grow.
func TestTraceKeepsStealAcrossHotOwnerPath(t *testing.T) {
	p := newTestPool(t, Options{Segments: 2, TraceBuf: 8})
	victim, thief := p.Handle(1), p.Handle(0)
	for i := 0; i < 10; i++ {
		victim.Put(i)
	}
	if _, ok := thief.Get(); !ok {
		t.Fatal("steal Get failed with elements present")
	}
	tr := p.Tracer(0)
	before := tr.Timeline()
	if !slices.ContainsFunc(before.Events, func(e trace.Event) bool { return e.Kind == trace.ReserveTransfer }) {
		t.Fatalf("steal left no reserve_transfer: %v", before.Events)
	}
	for i := 0; i < 10000; i++ {
		thief.Put(i)
		if _, ok := thief.Get(); !ok {
			t.Fatal("local Get missed")
		}
	}
	after := tr.Timeline()
	if after.Dropped != before.Dropped {
		t.Fatalf("Dropped grew %d -> %d across local ops", before.Dropped, after.Dropped)
	}
	if !slices.Equal(after.Events, before.Events) {
		t.Fatalf("local ops changed the ring: %v, want %v", after.Events, before.Events)
	}
}

func TestStealOnePolicy(t *testing.T) {
	p := newTestPool(t, Options{Segments: 4, Policies: policy.Set{Steal: policy.One{}}, CollectStats: true})
	producer := p.Handle(1)
	for i := 0; i < 10; i++ {
		producer.Put(i)
	}
	consumer := p.Handle(0)
	if _, ok := consumer.Get(); !ok {
		t.Fatal("Get failed")
	}
	if got := p.SegmentLen(1); got != 9 {
		t.Fatalf("victim has %d, want 9 under steal-one", got)
	}
	if got := p.SegmentLen(0); got != 0 {
		t.Fatalf("consumer segment has %d, want 0 under steal-one", got)
	}
}

func TestGetAbortsWhenEmptyAndAlone(t *testing.T) {
	p := newTestPool(t, Options{Segments: 4, CollectStats: true})
	h := p.Handle(0)
	if _, ok := h.Get(); ok {
		t.Fatal("Get on empty pool with a single participant should abort")
	}
	if st := h.Stats(); st.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", st.Aborts)
	}
}

func TestGetAfterPoolClose(t *testing.T) {
	p := newTestPool(t, Options{Segments: 2})
	h := p.Handle(0)
	h.Put(1)
	p.Close()
	if !p.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if _, ok := h.Get(); ok {
		t.Fatal("Get should fail on closed pool")
	}
}

func TestHandleClose(t *testing.T) {
	p := newTestPool(t, Options{Segments: 2})
	h := p.Handle(0)
	h.Put(1)
	h.Close()
	if !h.Closed() {
		t.Fatal("Closed() = false")
	}
	if _, ok := h.Get(); ok {
		t.Fatal("Get on closed handle should fail")
	}
	h.Close() // idempotent
	if got := p.open.Load(); got != 0 {
		t.Fatalf("open = %d after close, want 0", got)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	p := newTestPool(t, Options{Segments: 2})
	h := p.Handle(0)
	h.Register()
	h.Register()
	h.Put(1)
	if got := p.open.Load(); got != 1 {
		t.Fatalf("open = %d, want 1", got)
	}
}

func TestSeedEvenlyAndDrain(t *testing.T) {
	p := newTestPool(t, Options{Segments: 4})
	items := make([]int, 10)
	for i := range items {
		items[i] = i
	}
	p.SeedEvenly(items)
	if p.Len() != 10 {
		t.Fatalf("Len = %d", p.Len())
	}
	// Round-robin: segments get 3,3,2,2.
	want := []int{3, 3, 2, 2}
	for i, w := range want {
		if got := p.SegmentLen(i); got != w {
			t.Errorf("segment %d has %d, want %d", i, got, w)
		}
	}
	got := p.Drain()
	if len(got) != 10 || p.Len() != 0 {
		t.Fatalf("Drain returned %d, Len now %d", len(got), p.Len())
	}
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatal("Drain lost elements")
	}
}

func TestTryPutRespectsCapAndSpills(t *testing.T) {
	p := newTestPool(t, Options{Segments: 3, SegmentCap: 2})
	h := p.Handle(0)
	for i := 0; i < 6; i++ {
		if !h.TryPut(i) {
			t.Fatalf("TryPut %d failed with space available", i)
		}
	}
	if !h.TryPut(99) == false {
		t.Fatal("TryPut should fail when all segments are full")
	}
	for i := 0; i < 3; i++ {
		if got := p.SegmentLen(i); got != 2 {
			t.Fatalf("segment %d has %d, want 2", i, got)
		}
	}
}

func TestTryPutUncappedAlwaysLocal(t *testing.T) {
	p := newTestPool(t, Options{Segments: 3})
	h := p.Handle(1)
	for i := 0; i < 100; i++ {
		if !h.TryPut(i) {
			t.Fatal("uncapped TryPut failed")
		}
	}
	if got := p.SegmentLen(1); got != 100 {
		t.Fatalf("segment 1 has %d, want 100", got)
	}
}

func TestTryGetLocalDoesNotSearch(t *testing.T) {
	p := newTestPool(t, Options{Segments: 2})
	p.Handle(1).Put(7)
	if _, ok := p.Handle(0).TryGetLocal(); ok {
		t.Fatal("TryGetLocal should not steal")
	}
	if v, ok := p.Handle(1).TryGetLocal(); !ok || v != 7 {
		t.Fatalf("TryGetLocal = (%d,%v)", v, ok)
	}
}

// Conservation under heavy concurrency: what goes in comes out exactly once.
func TestConcurrentConservation(t *testing.T) {
	for _, kind := range search.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const procs = 8
			const perProc = 2000
			p := newTestPool(t, Options{Segments: procs, Policies: policy.Set{Order: kind}, Seed: 7})
			for i := 0; i < procs; i++ {
				p.Handle(i).Register()
			}
			var got [procs][]int
			var wg sync.WaitGroup
			for i := 0; i < procs; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					h := p.Handle(id)
					x := rng.NewXoshiro256(uint64(id) + 1)
					puts := 0
					for puts < perProc {
						if x.Bool(0.55) {
							h.Put(id*perProc + puts)
							puts++
						} else if v, ok := h.Get(); ok {
							got[id] = append(got[id], v)
						}
					}
					h.Close()
				}(i)
			}
			wg.Wait()
			remaining := p.Drain()
			total := len(remaining)
			seen := map[int]bool{}
			check := func(v int) {
				if seen[v] {
					t.Fatalf("element %d delivered twice", v)
				}
				seen[v] = true
			}
			for _, v := range remaining {
				check(v)
			}
			for i := 0; i < procs; i++ {
				total += len(got[i])
				for _, v := range got[i] {
					check(v)
				}
			}
			if total != procs*perProc {
				t.Fatalf("conservation broken: %d in, %d out", procs*perProc, total)
			}
		})
	}
}

// Producer/consumer: consumers must obtain every element producers add.
func TestProducerConsumerDelivery(t *testing.T) {
	for _, kind := range search.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const procs = 8
			const producers = 3
			const perProducer = 3000
			p := newTestPool(t, Options{Segments: procs, Policies: policy.Set{Order: kind}, Seed: 3})
			for i := 0; i < procs; i++ {
				p.Handle(i).Register()
			}
			var delivered atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < procs; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					h := p.Handle(id)
					if id < producers {
						for j := 0; j < perProducer; j++ {
							h.Put(j)
						}
						h.Close() // withdraw so consumers can terminate
						return
					}
					for {
						if _, ok := h.Get(); !ok {
							// Abort: either drained or all remaining
							// participants are searching. Only exit for
							// good once the pool is truly empty and all
							// producers are done; otherwise retry.
							if p.Len() == 0 && p.open.Load() <= int32(procs-producers) {
								h.Close()
								return
							}
							continue
						}
						delivered.Add(1)
					}
				}(i)
			}
			wg.Wait()
			want := int64(producers * perProducer)
			if delivered.Load() != want {
				t.Fatalf("delivered %d, want %d", delivered.Load(), want)
			}
		})
	}
}

// Property: any single-threaded op sequence conserves elements exactly.
func TestSequentialConservationProperty(t *testing.T) {
	f := func(ops []uint8, segsRaw uint8, kindRaw uint8) bool {
		segs := int(segsRaw)%8 + 1
		kind := search.Kinds()[int(kindRaw)%3]
		p, err := New[int](Options{Segments: segs, Policies: policy.Set{Order: kind}, Seed: 1})
		if err != nil {
			return false
		}
		in, out := 0, 0
		next := 0
		for _, op := range ops {
			h := p.Handle(int(op) % segs)
			if op%2 == 0 {
				h.Put(next)
				next++
				in++
			} else if _, ok := h.Get(); ok {
				out++
			}
		}
		return in-out == p.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatsAggregation(t *testing.T) {
	p := newTestPool(t, Options{Segments: 2, CollectStats: true})
	a, b := p.Handle(0), p.Handle(1)
	a.Put(1)
	a.Put(2)
	b.Put(3)
	a.Get()
	b.Get()
	st := p.Stats()
	if st.Adds != 3 || st.Removes != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Ops() != 5 {
		t.Fatalf("Ops = %d", st.Ops())
	}
}

func TestGetUsesLastFoundLocality(t *testing.T) {
	// After stealing from segment k, the linear algorithm's next search
	// starts at k: the consumer should keep draining the same producer.
	p := newTestPool(t, Options{Segments: 16, CollectStats: true})
	producer := p.Handle(9)
	for i := 0; i < 64; i++ {
		producer.Put(i)
	}
	consumer := p.Handle(2)
	count := 0
	for {
		if _, ok := consumer.Get(); !ok {
			break
		}
		count++
	}
	if count != 64 {
		t.Fatalf("consumed %d, want 64", count)
	}
	st := consumer.Stats()
	// First steal walks 2..9 (8 probes); subsequent steals hit segment 9
	// immediately, so the mean must be far below a full lap.
	if st.SegmentsExamined.Mean() > 4 {
		t.Fatalf("mean segments examined %.1f, locality not exploited", st.SegmentsExamined.Mean())
	}
}

// Regression: a single goroutine driving several registered handles must
// not search forever on an empty pool (the all-searching rule alone cannot
// fire there; the staleness rule must).
func TestSequentialMultiHandleGetAborts(t *testing.T) {
	for _, kind := range search.Kinds() {
		p := newTestPool(t, Options{Segments: 4, Policies: policy.Set{Order: kind}, Seed: 2})
		for i := 0; i < 4; i++ {
			p.Handle(i).Register()
		}
		done := make(chan bool, 1)
		go func() {
			_, ok := p.Handle(0).Get()
			done <- ok
		}()
		select {
		case ok := <-done:
			if ok {
				t.Fatalf("%v: Get on empty pool returned ok", kind)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: Get on empty pool hung", kind)
		}
	}
}

// A mutation during a stale search re-arms it: the searcher must find the
// late-arriving element rather than abort.
func TestStaleSearchRearmsOnMutation(t *testing.T) {
	p := newTestPool(t, Options{Segments: 4})
	consumer := p.Handle(0)
	producer := p.Handle(2)
	consumer.Register()
	producer.Register()
	go func() {
		time.Sleep(20 * time.Millisecond)
		producer.Put(7)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := consumer.Get(); ok {
			if v != 7 {
				t.Fatalf("got %d, want 7", v)
			}
			return
		}
	}
	t.Fatal("consumer never received the late element")
}

// TestAddPublishesOnlyToSearches pins the add gate (noteAdd) on every
// site that uses it, driving the Coverage rule by hand as a search would:
// (a) an add made while a search is in flight must keep that search from
// certifying emptiness over segments it already saw empty, and (b) an add
// made while no handle searches must leave the pool-wide version alone.
func TestAddPublishesOnlyToSearches(t *testing.T) {
	cases := []struct {
		name string
		add  func(t *testing.T, h *Handle[int])
	}{
		{"Put", func(_ *testing.T, h *Handle[int]) { h.Put(7) }},
		{"PutAll", func(_ *testing.T, h *Handle[int]) { h.PutAll([]int{7, 8}) }},
		{"TryPut", func(t *testing.T, h *Handle[int]) {
			if !h.TryPut(7) {
				t.Fatal("TryPut refused an element under SegmentCap")
			}
		}},
		{"parkLocal", func(_ *testing.T, h *Handle[int]) { h.parkLocal([]int{7, 8}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			newPool := func() *Pool[int] {
				p := newTestPool(t, Options{Segments: 2, SegmentCap: 4})
				p.Handle(0).Register()
				p.Handle(1).Register()
				return p
			}

			// (a) Handle 0 is inside a search, raised the way the engine
			// raises it (Begin, then the substrate's Enter), and has seen
			// every segment empty: without a publish it would abort.
			p := newPool()
			cov := engine.NewCoverage(2, coverageState[int]{p})
			cov.Begin(1)
			p.handles[0].sub.Enter(1)
			cov.SawEmpty(0)
			cov.SawEmpty(1)
			if !cov.Aborted() {
				t.Fatal("covered search with no add failed to abort")
			}
			c.add(t, p.Handle(1))
			if cov.Aborted() {
				t.Fatal("add during a search left its stale empty certificate standing")
			}
			p.handles[0].sub.Exit()

			// (b) Nobody searches: the add must not write the shared word.
			p = newPool()
			before := p.version.Load()
			c.add(t, p.Handle(1))
			if got := p.version.Load(); got != before {
				t.Fatalf("add with no searcher moved the version %d -> %d", before, got)
			}
		})
	}
}

// TestEmptyProbeRaisesNoTransfer pins when a steal counts as a transfer
// in flight: only once it has found elements to claim. An empty probe
// that held the moving count would, with more searchers than CPUs, keep
// every searcher of an empty pool from aborting, since a descheduled
// prober can sit inside its window for a whole time slice. Handle 0
// probes an empty victim in a loop while this goroutine samples the
// Coverage evidence; the two loops overlap only with two or more CPUs.
func TestEmptyProbeRaisesNoTransfer(t *testing.T) {
	p := newTestPool(t, Options{Segments: 2})
	var started, stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if p.handles[0].sub.Probe(1, 1) != 0 {
				t.Error("probe of an empty segment reported elements")
				return
			}
			started.Store(true)
		}
	}()
	for !started.Load() {
		runtime.Gosched()
	}
	cs := coverageState[int]{p}
	seen := 0
	for i := 0; i < 1_000_000; i++ {
		if cs.TransfersInFlight() {
			seen++
		}
	}
	stop.Store(true)
	<-done
	if seen > 0 {
		t.Fatalf("empty probes showed a transfer in flight in %d of 1000000 samples", seen)
	}
}
