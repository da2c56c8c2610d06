// Taskscheduler: the paper's motivating use case — scheduling dynamically
// created tasks. Workers pull tasks from a concurrent pool; processing a
// task may generate new tasks that go back into the worker's local
// segment, preserving locality ("there is no reason to share nodes with
// another process until the local collection has been depleted").
//
// The workload is a synthetic divide-and-conquer computation: each task
// carries an amount of work; tasks above a threshold split into children,
// leaves contribute to a global sum. The result is deterministic, so the
// run checks itself.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pools"
)

// task is a unit of divide-and-conquer work.
type task struct {
	work int
}

// process splits big tasks and returns the leaf contribution of small
// ones.
func process(t task) (children []task, leaf int64) {
	if t.work <= 4 {
		return nil, int64(t.work)
	}
	half := t.work / 2
	return []task{{work: half}, {work: t.work - half}}, 0
}

func main() {
	const workers = 8
	const rootWork = 1_000_000

	p, err := pools.New[task](pools.Options{
		Segments: workers,
		Policies: pools.PolicySet{Order: pools.SearchTree}, // fewest remote probes per steal
		Seed:     2026,
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < workers; i++ {
		p.Handle(i).Register()
	}
	p.Handle(0).Put(task{work: rootWork})

	var (
		sum     atomic.Int64
		pending atomic.Int64 // tasks created but not yet fully processed
		tasks   atomic.Int64
	)
	pending.Store(1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id)
			for pending.Load() > 0 {
				t, ok := h.Get()
				if !ok {
					continue // transiently empty; termination via pending
				}
				tasks.Add(1)
				children, leaf := process(t)
				sum.Add(leaf)
				pending.Add(int64(len(children)) - 1)
				for _, c := range children {
					h.Put(c) // locality: children go to the local segment
				}
			}
			h.Close()
		}(w)
	}
	wg.Wait()

	fmt.Printf("processed %d tasks across %d workers\n", tasks.Load(), workers)
	fmt.Printf("sum = %d (want %d): %v\n", sum.Load(), int64(rootWork), sum.Load() == int64(rootWork))
}
