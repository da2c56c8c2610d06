package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"pools/internal/policy"
)

func TestPutAllHuge(t *testing.T) {
	p := newTestPool(t, Options{Segments: 2})
	h := p.Handle(1)
	big := make([]int, 100_000)
	for i := range big {
		big[i] = i
	}
	h.PutAll(big)
	if p.Len() != len(big) {
		t.Fatalf("pool holds %d elements, want %d", p.Len(), len(big))
	}
	seen := make([]bool, len(big))
	total := 0
	for {
		out := h.GetN(4096)
		if len(out) == 0 {
			break
		}
		for _, v := range out {
			if seen[v] {
				t.Fatalf("element %d returned twice", v)
			}
			seen[v] = true
		}
		total += len(out)
	}
	if total != len(big) {
		t.Fatalf("drained %d elements, want %d", total, len(big))
	}
}

func TestGetNClosedAndEmpty(t *testing.T) {
	p := newTestPool(t, Options{Segments: 2})
	h := p.Handle(0)
	if out := h.GetN(0); out != nil {
		t.Fatalf("GetN(0) = %v, want nil", out)
	}
	if out := h.GetN(-3); out != nil {
		t.Fatalf("GetN(-3) = %v, want nil", out)
	}
	// Only participant searching an empty pool: the abort rule fires.
	if out := h.GetN(5); out != nil {
		t.Fatalf("GetN on empty pool = %v, want nil", out)
	}
	h.PutAll([]int{1})
	p.Close()
	if out := h.GetN(5); out != nil {
		t.Fatalf("GetN on closed pool = %v, want nil", out)
	}
}

// TestPutAllDirectedAdds checks that a batch arrival feeds a hungry
// searcher: the consumer blocked in a search receives a gift from the
// producer's PutAll and completes its GetN with it.
func TestPutAllDirectedAdds(t *testing.T) {
	p := newTestPool(t, Options{Segments: 2, Policies: policy.Set{Place: policy.GiftAll{}}, CollectStats: true})
	producer := p.Handle(1)
	consumer := p.Handle(0)
	consumer.Register()
	producer.Register()

	var wg sync.WaitGroup
	wg.Add(1)
	results := make(chan []int, 1)
	go func() {
		defer wg.Done()
		for {
			out := consumer.GetN(8)
			if len(out) > 0 {
				results <- out
				return
			}
			// Abort races with the gift; retry until the batch lands.
			if p.Closed() {
				results <- nil
				return
			}
		}
	}()
	producer.PutAll([]int{10, 20, 30, 40})
	wg.Wait()
	out := <-results
	if len(out) == 0 {
		t.Fatal("consumer never received elements")
	}
	if p.Len()+len(out) != 4 {
		t.Fatalf("conservation violated: pool=%d returned=%d", p.Len(), len(out))
	}
}

func TestPutAllGetNConcurrent(t *testing.T) {
	const (
		workers = 4
		batches = 200
		batch   = 16
	)
	p := newTestPool(t, Options{Segments: workers, Seed: 11})
	for i := 0; i < workers; i++ {
		p.Handle(i).Register()
	}
	var got atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id)
			items := make([]int, batch)
			if id%2 == 0 {
				for i := 0; i < batches; i++ {
					h.PutAll(items)
				}
				h.Close()
				return
			}
			for {
				out := h.GetN(batch)
				if len(out) == 0 {
					if p.Len() == 0 {
						break
					}
					continue
				}
				got.Add(int64(len(out)))
			}
			h.Close()
		}(w)
	}
	wg.Wait()
	total := got.Load() + int64(p.Len())
	want := int64(workers / 2 * batches * batch)
	if total != want {
		t.Fatalf("elements accounted = %d, want %d", total, want)
	}
}
