package core

import (
	"sync"
	"testing"
	"time"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
)

// Failure injection: closing the pool while consumers are deep in searches
// must release every one of them promptly. Close waits until every
// consumer's first Get has returned, so each is already looping through
// searches when the pool closes.
func TestCloseReleasesStuckSearchers(t *testing.T) {
	for _, kind := range search.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const consumers = 3
			p := newTestPool(t, Options{Segments: consumers + 1, Policies: policy.Set{Order: kind}, Seed: 4})
			for i := 0; i <= consumers; i++ {
				p.Handle(i).Register() // a registered producer keeps searches alive
			}
			var wg, searched sync.WaitGroup
			for i := 0; i < consumers; i++ {
				wg.Add(1)
				searched.Add(1)
				go func(id int) {
					defer wg.Done()
					// Empty pool + registered non-searching producer:
					// searches run until the staleness rule or Close fires.
					for first := true; ; first = false {
						_, ok := p.Handle(id).Get()
						if first {
							searched.Done()
						}
						if !ok && p.Closed() {
							return
						}
					}
				}(i)
			}
			wait := func(wg *sync.WaitGroup, failure string) {
				t.Helper()
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal(failure)
				}
			}
			wait(&searched, "a consumer's first Get never returned")
			p.Close()
			wait(&wg, "Close did not release searchers")
		})
	}
}

// Closing a handle from its own goroutine mid-run keeps the remaining
// participants' emptiness detection sound.
func TestHandleCloseMidRunTermination(t *testing.T) {
	const procs = 4
	p := newTestPool(t, Options{Segments: procs})
	for i := 0; i < procs; i++ {
		p.Handle(i).Register()
	}
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id)
			for j := 0; j < 100; j++ {
				h.Put(j)
			}
			for {
				if _, ok := h.Get(); !ok {
					break // aborted: everyone else closed or all searching
				}
			}
			h.Close()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers never terminated after handle closes")
	}
}

// The NUMA delayer must actually slow operations down in proportion.
func TestDelayerSlowsOperations(t *testing.T) {
	run := func(scale time.Duration) time.Duration {
		p := newTestPool(t, Options{
			Segments: 2,
			Delay:    numa.Delayer{Model: numa.ButterflyCosts(), Scale: scale},
		})
		h := p.Handle(0)
		start := time.Now()
		for i := 0; i < 50; i++ {
			h.Put(i)
		}
		for i := 0; i < 50; i++ {
			h.Get()
		}
		return time.Since(start)
	}
	fast := run(0)
	slow := run(50 * time.Microsecond) // local add=70 vu -> 3.5ms each
	if slow < 10*fast {
		t.Fatalf("delayer had little effect: fast=%v slow=%v", fast, slow)
	}
}

// Two pools must be fully independent (no shared global state).
func TestPoolsAreIndependent(t *testing.T) {
	a := newTestPool(t, Options{Segments: 2, Policies: policy.Set{Order: search.Tree}})
	b := newTestPool(t, Options{Segments: 2, Policies: policy.Set{Order: search.Tree}})
	a.Handle(0).Put(1)
	if b.Len() != 0 {
		t.Fatal("pools share state")
	}
	b.Close()
	if v, ok := a.Handle(0).Get(); !ok || v != 1 {
		t.Fatalf("closing pool b broke pool a: (%d,%v)", v, ok)
	}
}

// Steal-one under concurrency conserves elements exactly like steal-half.
func TestStealOneConcurrentConservation(t *testing.T) {
	const procs = 4
	const perProc = 2000
	p := newTestPool(t, Options{Segments: procs, Policies: policy.Set{Steal: policy.One{}, Order: search.Random}, Seed: 9})
	for i := 0; i < procs; i++ {
		p.Handle(i).Register()
	}
	var got [procs]int
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := p.Handle(id)
			for j := 0; j < perProc; j++ {
				if j%2 == 0 {
					h.Put(j)
				} else if _, ok := h.Get(); ok {
					got[id]++
				}
			}
			h.Close()
		}(i)
	}
	wg.Wait()
	total := p.Len()
	for _, g := range got {
		total += g
	}
	if total != procs*perProc/2 {
		t.Fatalf("conservation broken: %d of %d", total, procs*perProc/2)
	}
}

// Tree round counters in the pool never decrease (monotonicity invariant).
func TestPoolTreeRoundsMonotone(t *testing.T) {
	p := newTestPool(t, Options{Segments: 8, Policies: policy.Set{Order: search.Tree}})
	producer := p.Handle(3)
	consumer := p.Handle(6)
	prev := make([]uint64, len(p.nodes))
	for round := 0; round < 50; round++ {
		producer.Put(round)
		consumer.Get()
		for i := range p.nodes {
			cur := p.nodes[i].round.Load()
			if cur < prev[i] {
				t.Fatalf("node %d round decreased %d -> %d", i, prev[i], cur)
			}
			prev[i] = cur
		}
	}
}
