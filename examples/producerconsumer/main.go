// Producerconsumer: the paper's producer/consumer workload on the real
// pool, demonstrating the Section 4.2 placement lesson: spreading
// producers around the segment ring ("balanced") instead of clustering
// them improves steal behaviour, and the batch extension: moving elements
// with PutAll/GetN amortizes one segment lock over the whole burst. The
// run prints per-worker steal statistics for both arrangements and for a
// batched balanced run.
package main

import (
	"fmt"
	"runtime"
	"sync"

	"pools"
	"pools/internal/workload"
)

const (
	workers   = 16
	producers = 5
	perProd   = 4000
)

// runArrangement runs the workload with producers at the given positions.
// With batch > 1, producers add and consumers remove in batches of that
// size via PutAll/GetN instead of one element at a time.
func runArrangement(name string, positions []int, batch int) {
	p, err := pools.New[int](pools.Options{
		Segments:     workers,
		Policies:     pools.PolicySet{Order: pools.SearchLinear},
		CollectStats: true,
	})
	if err != nil {
		panic(err)
	}
	isProducer := map[int]bool{}
	for _, pos := range positions {
		isProducer[pos] = true
	}
	for i := 0; i < workers; i++ {
		p.Handle(i).Register()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id)
			if isProducer[id] {
				buf := make([]int, 0, batch)
				for i := 0; i < perProd; i++ {
					buf = append(buf, i)
					if len(buf) == batch {
						h.PutAll(buf)
						buf = buf[:0]
						// Yield so producers and consumers interleave even
						// on a single-core host (each paper process had
						// its own processor).
						runtime.Gosched()
					}
				}
				h.PutAll(buf)
				h.Close()
				return
			}
			for {
				if out := h.GetN(batch); len(out) == 0 && p.Len() == 0 {
					break
				}
				runtime.Gosched()
			}
			h.Close()
		}(w)
	}
	wg.Wait()

	st := p.Stats()
	fmt.Printf("%-16s producers at %v, batch %d\n", name, positions, batch)
	fmt.Printf("  removes=%d steals=%d (%.1f%% of removes)  elements/steal=%.2f  segments examined/steal=%.2f  pool operations=%d\n",
		st.Removes, st.Steals, 100*st.StealFraction(),
		st.ElementsStolen.Mean(), st.SegmentsExamined.Mean(),
		st.OpCount())
}

func main() {
	fmt.Printf("producer/consumer on a %d-segment pool, %d producers x %d elements\n\n",
		workers, producers, perProd)
	runArrangement("contiguous", workload.ProducerPositions(workers, producers, workload.Contiguous), 1)
	runArrangement("balanced", workload.ProducerPositions(workers, producers, workload.Balanced), 1)
	runArrangement("balanced+batch32", workload.ProducerPositions(workers, producers, workload.Balanced), 32)
}
