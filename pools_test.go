package pools_test

import (
	"errors"
	"sync"
	"testing"

	"pools"
)

func TestPublicAPIQuickstart(t *testing.T) {
	p, err := pools.New[string](pools.Options{Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handle(0)
	h.Put("a")
	h.Put("b")
	if v, ok := h.Get(); !ok || v != "b" {
		t.Fatalf("Get = (%q,%v)", v, ok)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestPublicAPIAllSearchKinds(t *testing.T) {
	for _, kind := range []pools.SearchKind{pools.SearchLinear, pools.SearchRandom, pools.SearchTree} {
		p, err := pools.New[int](pools.Options{Segments: 8, Policies: pools.PolicySet{Order: kind}, Seed: 42})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		producer := p.Handle(7)
		for i := 0; i < 16; i++ {
			producer.Put(i)
		}
		consumer := p.Handle(0)
		got := 0
		for {
			if _, ok := consumer.Get(); !ok {
				break
			}
			got++
		}
		// The consumer steals everything the producer left behind.
		if got != 16 {
			t.Fatalf("%v: consumed %d, want 16", kind, got)
		}
	}
}

func TestPublicAPIBadOptions(t *testing.T) {
	if _, err := pools.New[int](pools.Options{}); !errors.Is(err, pools.ErrBadOptions) {
		t.Fatalf("err = %v, want ErrBadOptions", err)
	}
}

func TestPublicAPIPolicySet(t *testing.T) {
	// Configure a proportional steal through the policy layer: a GetN(4)
	// against a remote reserve of 40 steals exactly the 4 it asked for.
	p, err := pools.New[int](pools.Options{
		Segments: 4,
		Policies: pools.PolicySet{Steal: pools.ProportionalSteal{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	producer := p.Handle(2)
	producer.PutAll(make([]int, 40))
	if out := p.Handle(0).GetN(4); len(out) != 4 {
		t.Fatalf("GetN(4) = %d elements", len(out))
	}
	if got := p.SegmentLen(0); got != 0 {
		t.Fatalf("proportional steal parked %d locally, want 0", got)
	}

	// The named registry builds every advertised policy.
	for _, name := range []string{"half", "one", "proportional", "adaptive"} {
		set, err := pools.PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if _, err := pools.New[int](pools.Options{Segments: 2, Policies: set}); err != nil {
			t.Fatalf("New with %q policies: %v", name, err)
		}
	}
	if _, err := pools.PolicyByName("bogus"); err == nil {
		t.Fatal("PolicyByName(bogus) succeeded")
	}
	if pools.NewAdaptivePolicy() == pools.NewAdaptivePolicy() {
		t.Fatal("NewAdaptivePolicy returned a shared instance")
	}

	// Every shipped placement and the victim order are reachable through
	// the public facade.
	p3, err := pools.New[int](pools.Options{
		Segments: 2,
		Policies: pools.PolicySet{
			Steal: pools.StealHalfAmount{},
			Order: pools.SearchTree,
			Place: pools.GiftHalfPlacement{},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p3.Handle(0).Put(1)
	if v, ok := p3.Handle(1).Get(); !ok || v != 1 {
		t.Fatalf("Get through policy-configured pool = (%d,%v)", v, ok)
	}
	for _, place := range []pools.Placement{
		pools.LocalPlacement{}, pools.GiftOnePlacement{}, pools.GiftAllPlacement{},
	} {
		if _, err := pools.New[int](pools.Options{
			Segments: 2,
			Policies: pools.PolicySet{Place: place},
		}); err != nil {
			t.Fatalf("New with placement %s: %v", place.Name(), err)
		}
	}
}

func TestPublicAPIConcurrentWorkers(t *testing.T) {
	const workers = 4
	p, err := pools.New[int](pools.Options{Segments: workers, Policies: pools.PolicySet{Order: pools.SearchTree}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		p.Handle(i).Register()
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id)
			for i := 0; i < 500; i++ {
				h.Put(i)
			}
			count := 0
			for {
				if _, ok := h.Get(); !ok {
					break
				}
				count++
			}
			h.Close()
			mu.Lock()
			total += count
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	total += p.Len()
	if total != workers*500 {
		t.Fatalf("conservation broken: %d of %d accounted", total, workers*500)
	}
}

func TestPublicKeyedAPI(t *testing.T) {
	p, err := pools.NewKeyed[string, int](pools.KeyedOptions{Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handle(0)
	h.Put("red", 1)
	p.Handle(2).Put("blue", 9)
	if v, ok := h.Get("blue"); !ok || v != 9 {
		t.Fatalf("keyed steal = (%d,%v)", v, ok)
	}
	if k, v, ok := h.GetAny(); !ok || k != "red" || v != 1 {
		t.Fatalf("GetAny = (%s,%d,%v)", k, v, ok)
	}
}

func TestPublicAPIBatchOps(t *testing.T) {
	p, err := pools.New[int](pools.Options{Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	producer := p.Handle(2)
	consumer := p.Handle(0)
	producer.PutAll([]int{1, 2, 3, 4, 5, 6, 7, 8})
	// Dry local segment: the GetN surfaces the steal-half batch (4 of 8).
	if out := consumer.GetN(8); len(out) != 4 {
		t.Fatalf("GetN returned %d elements, want the stolen half (4)", len(out))
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want 4", p.Len())
	}

	kp, err := pools.NewKeyed[string, int](pools.KeyedOptions{Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	kp.Handle(1).PutAll("k", []int{1, 2, 3})
	if out := kp.Handle(1).GetN("k", 10); len(out) != 3 {
		t.Fatalf("keyed GetN returned %d elements, want 3", len(out))
	}
	if out := kp.Handle(1).GetN("missing", 10); out != nil {
		t.Fatalf("keyed GetN of absent class = %v, want nil", out)
	}
}
