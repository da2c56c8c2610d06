package keyed

import (
	"sync"
	"testing"
	"testing/quick"

	"pools/internal/rng"
)

func newPool(t *testing.T, segs int) *Pool[string, int] {
	t.Helper()
	p, err := New[string, int](Options{Segments: segs})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New[int, int](Options{Segments: 0}); err == nil {
		t.Error("Segments=0 accepted")
	}
	if _, err := New[int, int](Options{Segments: 2, Sweeps: -1}); err == nil {
		t.Error("negative sweeps accepted")
	}
	p, err := New[int, int](Options{Segments: 2})
	if err != nil || p.Segments() != 2 {
		t.Fatalf("New: %v", err)
	}
}

func TestLocalPutGet(t *testing.T) {
	p := newPool(t, 4)
	h := p.Handle(0)
	h.Put("red", 1)
	h.Put("red", 2)
	h.Put("blue", 3)
	if p.Len() != 3 || p.LenKey("red") != 2 || p.LenKey("blue") != 1 {
		t.Fatalf("Len=%d red=%d blue=%d", p.Len(), p.LenKey("red"), p.LenKey("blue"))
	}
	if v, ok := h.Get("red"); !ok || v != 2 {
		t.Fatalf("Get(red) = (%d,%v)", v, ok)
	}
	if v, ok := h.Get("blue"); !ok || v != 3 {
		t.Fatalf("Get(blue) = (%d,%v)", v, ok)
	}
	if _, ok := h.Get("blue"); ok {
		t.Fatal("Get on drained class succeeded")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestGetStealsMatchingClassOnly(t *testing.T) {
	p := newPool(t, 8)
	producer := p.Handle(5)
	for i := 0; i < 10; i++ {
		producer.Put("red", i)
		producer.Put("blue", 100+i)
	}
	consumer := p.Handle(0)
	v, ok := consumer.Get("red")
	if !ok || v < 0 || v > 9 {
		t.Fatalf("Get(red) = (%d,%v)", v, ok)
	}
	// Half the red bucket moved; blue untouched at the victim.
	if got := p.LenKey("blue"); got != 10 {
		t.Fatalf("blue class disturbed: %d", got)
	}
	if got := p.LenKey("red"); got != 9 {
		t.Fatalf("red remaining = %d, want 9", got)
	}
}

func TestGetMissingClassReturnsFalse(t *testing.T) {
	p := newPool(t, 4)
	p.Handle(1).Put("red", 1)
	if _, ok := p.Handle(0).Get("green"); ok {
		t.Fatal("found element of absent class")
	}
}

func TestGetAnyPrefersLocal(t *testing.T) {
	p := newPool(t, 4)
	p.Handle(0).Put("red", 1)
	p.Handle(1).Put("blue", 2)
	k, v, ok := p.Handle(0).GetAny()
	if !ok || k != "red" || v != 1 {
		t.Fatalf("GetAny = (%s,%d,%v)", k, v, ok)
	}
}

func TestGetAnySteals(t *testing.T) {
	p := newPool(t, 4)
	p.Handle(2).Put("blue", 7)
	k, v, ok := p.Handle(0).GetAny()
	if !ok || k != "blue" || v != 7 {
		t.Fatalf("GetAny = (%s,%d,%v)", k, v, ok)
	}
	if _, _, ok := p.Handle(0).GetAny(); ok {
		t.Fatal("GetAny on empty pool succeeded")
	}
}

func TestGetAnyParksSurplus(t *testing.T) {
	p := newPool(t, 4)
	victim := p.Handle(2)
	for i := 0; i < 10; i++ {
		victim.Put("blue", i)
	}
	// Steal-half moves the victim's five oldest elements: the newest of
	// them is returned, the other four park in the thief's segment under
	// their class.
	k, v, ok := p.Handle(0).GetAny()
	if !ok || k != "blue" || v != 4 {
		t.Fatalf("GetAny = (%s,%d,%v), want (blue,4,true)", k, v, ok)
	}
	if got := p.SegmentLen(0); got != 4 {
		t.Fatalf("thief's segment holds %d, want 4 parked", got)
	}
	if got := p.SegmentLen(2); got != 5 {
		t.Fatalf("victim's segment holds %d, want 5", got)
	}
	if got := p.LenKey("blue"); got != 9 {
		t.Fatalf("blue class holds %d, want 9", got)
	}
	// The parked four are the thief's local elements now, newest first.
	for want := 3; want >= 0; want-- {
		if k, v, ok := p.Handle(0).GetAny(); !ok || k != "blue" || v != want {
			t.Fatalf("local GetAny = (%s,%d,%v), want (blue,%d,true)", k, v, ok, want)
		}
	}
	if got := p.SegmentLen(2); got != 5 {
		t.Fatalf("local GetAny reached the victim: it holds %d, want 5", got)
	}
}

func TestLastFoundLocality(t *testing.T) {
	p := newPool(t, 16)
	producer := p.Handle(9)
	for i := 0; i < 32; i++ {
		producer.Put("k", i)
	}
	consumer := p.Handle(2)
	for i := 0; i < 32; i++ {
		if _, ok := consumer.Get("k"); !ok {
			t.Fatalf("Get %d failed", i)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestConservationProperty(t *testing.T) {
	keys := []string{"a", "b", "c"}
	f := func(ops []uint8, segsRaw uint8) bool {
		segs := int(segsRaw)%6 + 1
		p, err := New[string, int](Options{Segments: segs})
		if err != nil {
			return false
		}
		in := map[string]int{}
		out := map[string]int{}
		next := 0
		for _, op := range ops {
			h := p.Handle(int(op) % segs)
			k := keys[int(op/8)%len(keys)]
			if op%2 == 0 {
				h.Put(k, next)
				next++
				in[k]++
			} else if _, ok := h.Get(k); ok {
				out[k]++
			}
		}
		for _, k := range keys {
			if in[k]-out[k] != p.LenKey(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentKeyedConservation(t *testing.T) {
	const procs = 6
	const perProc = 2000
	p := newPool(t, procs)
	keys := []string{"x", "y", "z"}
	var mu sync.Mutex
	seen := map[int]bool{}
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id)
			x := rng.NewXoshiro256(uint64(id) + 1)
			puts := 0
			for puts < perProc {
				k := keys[x.Intn(len(keys))]
				if x.Bool(0.6) {
					h.Put(k, id*perProc+puts)
					puts++
				} else if v, ok := h.Get(k); ok {
					mu.Lock()
					if seen[v] {
						mu.Unlock()
						t.Errorf("element %d delivered twice", v)
						return
					}
					seen[v] = true
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	total := len(seen) + p.Len()
	if total != procs*perProc {
		t.Fatalf("conservation broken: %d of %d", total, procs*perProc)
	}
}

func TestBucketsCleanedUp(t *testing.T) {
	p := newPool(t, 2)
	h := p.Handle(0)
	h.Put("k", 1)
	h.Get("k")
	s := &p.segs[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buckets) != 0 {
		t.Fatalf("empty bucket not removed: %d buckets", len(s.buckets))
	}
}

func TestMultiSweepOption(t *testing.T) {
	p, err := New[string, int](Options{Segments: 4, Sweeps: 3})
	if err != nil {
		t.Fatal(err)
	}
	p.Handle(3).Put("k", 9)
	if v, ok := p.Handle(0).Get("k"); !ok || v != 9 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
}

func BenchmarkKeyedLocalPutGet(b *testing.B) {
	p, _ := New[int, int](Options{Segments: 4})
	h := p.Handle(0)
	for i := 0; i < b.N; i++ {
		h.Put(i%8, i)
		h.Get(i % 8)
	}
}

func BenchmarkKeyedSteal(b *testing.B) {
	p, _ := New[int, int](Options{Segments: 16})
	producer := p.Handle(9)
	consumer := p.Handle(0)
	for i := 0; i < b.N; i++ {
		producer.Put(1, i)
		producer.Put(1, i)
		consumer.Get(1)
		consumer.Get(1)
	}
}
