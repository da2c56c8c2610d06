// Quickstart: the smallest useful concurrent-pool program. Four workers
// share a pool of integers; each adds to its own segment and removes from
// the pool, stealing from the others when its local segment runs dry.
package main

import (
	"fmt"
	"sync"

	"pools"
)

func main() {
	const workers = 4
	p, err := pools.New[int](pools.Options{
		Segments: workers,
		Policies: pools.PolicySet{Order: pools.SearchLinear},
	})
	if err != nil {
		panic(err)
	}

	// Register every participant up front so that a consumer starting
	// before the first producer's Put does not see a one-process pool.
	for i := 0; i < workers; i++ {
		p.Handle(i).Register()
	}

	var wg sync.WaitGroup
	var consumed sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id) // this worker's segment
			// Worker 0 produces everything; the rest only consume, so
			// every element they see was stolen.
			if id == 0 {
				for i := 0; i < 1000; i++ {
					h.Put(i)
				}
				h.Close() // done producing: let consumers terminate
				return
			}
			count := 0
			for {
				v, ok := h.Get()
				if !ok {
					// Empty and nobody left to add: drain complete.
					if p.Len() == 0 {
						break
					}
					continue
				}
				consumed.Store(v, id)
				count++
			}
			h.Close()
			fmt.Printf("worker %d consumed %d elements\n", id, count)
		}(w)
	}
	wg.Wait()

	total := 0
	consumed.Range(func(any, any) bool { total++; return true })
	fmt.Printf("total consumed: %d (produced 1000)\n", total)
}
