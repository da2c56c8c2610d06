package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"pools/internal/policy"
	"pools/internal/search"
)

func newBatchPool(t testing.TB, opts Options) *Pool[int] {
	t.Helper()
	p, err := New[int](opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPutAllGetNLocal(t *testing.T) {
	p := newBatchPool(t, Options{Segments: 4, CollectStats: true})
	h := p.Handle(0)
	h.PutAll(nil)
	h.PutAll([]int{})
	if p.Len() != 0 {
		t.Fatalf("empty PutAll grew pool to %d", p.Len())
	}
	h.PutAll([]int{1, 2, 3, 4, 5})
	if got := p.SegmentLen(0); got != 5 {
		t.Fatalf("segment 0 has %d elements, want 5", got)
	}
	out := h.GetN(3)
	if len(out) != 3 {
		t.Fatalf("GetN(3) returned %d elements", len(out))
	}
	if out2 := h.GetN(10); len(out2) != 2 {
		t.Fatalf("GetN(10) returned %d elements, want the remaining 2", len(out2))
	}
	st := h.Stats()
	if st.BatchAdds != 1 || st.BatchRemoves != 2 {
		t.Fatalf("batch counters = %d/%d, want 1/2", st.BatchAdds, st.BatchRemoves)
	}
	if st.Adds != 5 || st.Removes != 5 {
		t.Fatalf("element counters = %d/%d, want 5/5", st.Adds, st.Removes)
	}
}

func TestPutAllHuge(t *testing.T) {
	p := newBatchPool(t, Options{Segments: 2})
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

// TestGetNAcrossSteal is the tentpole's contract: a GetN on a dry local
// segment that steals half of a remote segment returns the stolen batch,
// not a single element.
func TestGetNAcrossSteal(t *testing.T) {
	for _, kind := range search.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p := newBatchPool(t, Options{Segments: 8, Search: kind, Seed: 7, CollectStats: true})
			producer := p.Handle(5)
			consumer := p.Handle(0)
			items := make([]int, 40)
			for i := range items {
				items[i] = i
			}
			producer.PutAll(items)

			out := consumer.GetN(64)
			// Steal-half takes ceil(40/2) = 20 elements; all of them should
			// come back in the one batch.
			if len(out) != 20 {
				t.Fatalf("GetN across steal returned %d elements, want 20", len(out))
			}
			seen := map[int]bool{}
			for _, v := range out {
				if v < 0 || v >= 40 || seen[v] {
					t.Fatalf("element %d duplicated or unknown", v)
				}
				seen[v] = true
			}
			st := consumer.Stats()
			if st.Steals != 1 || st.BatchRemoves != 1 {
				t.Fatalf("steals=%d batchRemoves=%d, want 1/1", st.Steals, st.BatchRemoves)
			}
			if p.Len() != 20 {
				t.Fatalf("pool left with %d elements, want 20", p.Len())
			}
		})
	}
}

// TestGetNCapsBelowSteal checks that a GetN with max smaller than the
// stolen batch returns exactly max and leaves the rest in the local
// segment for the next (now local and cheap) operation.
func TestGetNCapsBelowSteal(t *testing.T) {
	p := newBatchPool(t, Options{Segments: 4, Seed: 3})
	producer := p.Handle(2)
	consumer := p.Handle(0)
	producer.PutAll(make([]int, 32))

	out := consumer.GetN(4)
	if len(out) != 4 {
		t.Fatalf("GetN(4) returned %d elements", len(out))
	}
	// ceil(32/2) = 16 stolen, 4 returned, 12 parked locally.
	if got := p.SegmentLen(0); got != 12 {
		t.Fatalf("local segment holds %d, want 12", got)
	}
	if out = consumer.GetN(100); len(out) != 12 {
		t.Fatalf("follow-up GetN returned %d, want 12", len(out))
	}
}

func TestGetNClosedAndEmpty(t *testing.T) {
	p := newBatchPool(t, Options{Segments: 2})
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
	p := newBatchPool(t, Options{Segments: 2, Policies: policy.Set{Place: policy.GiftAll{}}, CollectStats: true})
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
	p := newBatchPool(t, Options{Segments: workers, Seed: 11})
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
