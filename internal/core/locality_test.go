package core

import (
	"sync"
	"testing"

	"pools/internal/policy"
)

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
