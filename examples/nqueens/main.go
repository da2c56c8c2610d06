// Nqueens: distributed backtracking over a concurrent pool, in the style
// of Finkel & Manber's DIB system, which the paper cites as evidence that
// "the simple forms of concurrent pools [work well] in real applications"
// (they used essentially the linear and random search algorithms).
//
// Each pool element is a partial placement of queens; workers pull a
// partial board, extend it by one row, and push the viable extensions
// back into their local segment. The solution count for N=10 (724) checks
// the run.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pools"
)

const n = 10 // board size; 10-queens has 724 solutions

// state is a partial placement: queens in rows 0..len-1.
type state struct {
	cols [n]int8 // column of the queen in each placed row
	rows int8    // rows placed so far
}

// safe reports whether a queen at (s.rows, col) is unattacked.
func (s state) safe(col int8) bool {
	for r := int8(0); r < s.rows; r++ {
		c := s.cols[r]
		if c == col || c-col == s.rows-r || col-c == s.rows-r {
			return false
		}
	}
	return true
}

func main() {
	const workers = 8
	p, err := pools.New[state](pools.Options{
		Segments: workers,
		// DIB used random/linear stealing.
		Policies: pools.PolicySet{Order: pools.SearchRandom},
		Seed:     1987, // the year DIB was published
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < workers; i++ {
		p.Handle(i).Register()
	}
	p.Handle(0).Put(state{}) // empty board seeds the search

	var (
		solutions atomic.Int64
		pending   atomic.Int64 // states created but not yet expanded
		expanded  atomic.Int64
	)
	pending.Store(1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id)
			for pending.Load() > 0 {
				s, ok := h.Get()
				if !ok {
					continue // transiently empty; termination via pending
				}
				expanded.Add(1)
				children := int64(0)
				for col := int8(0); col < n; col++ {
					if !s.safe(col) {
						continue
					}
					next := s
					next.cols[next.rows] = col
					next.rows++
					if next.rows == n {
						solutions.Add(1)
						continue
					}
					children++
					h.Put(next) // locality: extensions stay local
				}
				pending.Add(children - 1)
			}
			h.Close()
		}(w)
	}
	wg.Wait()

	fmt.Printf("%d-queens: %d solutions (want 724), %d states expanded by %d workers\n",
		n, solutions.Load(), expanded.Load(), workers)
	if solutions.Load() != 724 {
		panic("wrong solution count")
	}
}
