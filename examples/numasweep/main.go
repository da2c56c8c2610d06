// Numasweep: emulate a loosely-coupled machine on the real pool by
// injecting busy-wait delays per access (Section 4.3's experiment, wall
// clock edition). As the emulated remote penalty grows, the three search
// algorithms' throughputs converge — the paper's argument that the tree's
// complexity does not pay off on high-latency machines.
package main

import (
	"fmt"
	"sync"
	"time"

	"pools"
	"pools/internal/numa"
)

const (
	workers = 4
	opsPer  = 400
)

// throughput runs a stressed mixed workload and returns ops/second.
func throughput(kind pools.SearchKind, scale time.Duration) float64 {
	p, err := pools.New[int](pools.Options{
		Segments: workers,
		Policies: pools.PolicySet{Order: kind},
		Seed:     7,
		Delay:    numa.Delayer{Model: numa.ButterflyCosts(), Scale: scale},
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < workers; i++ {
		p.Handle(i).Register()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id)
			for i := 0; i < opsPer; i++ {
				if i%3 == 0 { // sparse mix: more removes than adds
					h.Put(i)
				} else {
					h.Get()
				}
			}
			h.Close()
		}(w)
	}
	wg.Wait()
	return float64(workers*opsPer) / time.Since(start).Seconds()
}

func main() {
	fmt.Println("search algorithm throughput (ops/s) vs emulated access latency")
	fmt.Println("(delays busy-wait per segment/tree access; see internal/numa)")
	fmt.Printf("%-14s %12s %12s %12s\n", "latency scale", "linear", "random", "tree")
	for _, scale := range []time.Duration{0, 100 * time.Nanosecond, 1 * time.Microsecond} {
		lin := throughput(pools.SearchLinear, scale)
		ran := throughput(pools.SearchRandom, scale)
		tre := throughput(pools.SearchTree, scale)
		fmt.Printf("%-14v %12.0f %12.0f %12.0f\n", scale, lin, ran, tre)
	}
}
