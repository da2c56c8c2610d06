package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
)

// aliveHandle returns the lowest-indexed live handle (tests only call it
// while at least one member is alive, which Kill guarantees).
func aliveHandle(p *Pool[int]) *Handle[int] {
	for i := 0; i < p.Segments(); i++ {
		if p.Alive(i) {
			return p.Handle(i)
		}
	}
	panic("no live handle")
}

func liveCount(p *Pool[int]) int {
	n := 0
	for i := 0; i < p.Segments(); i++ {
		if p.Alive(i) {
			n++
		}
	}
	return n
}

// The tentpole invariant, serially: across at least 1000 random seeded
// kill/revive transitions interleaved with operations, no element is
// ever lost (Len tracks the model count exactly) and the coverage rule
// never certifies emptiness while elements exist — a Get by a live
// handle with a non-empty pool must produce an element, whatever the
// membership looks like.
func TestChurnInvariants1000(t *testing.T) {
	const segments = 8
	p := newTestPool(t, Options{Segments: segments, Seed: 17})
	r := rng.NewXoshiro256(20260808)
	count := 0
	transitions := 0
	for step := 0; transitions < 1000; step++ {
		switch r.Intn(4) {
		case 0:
			aliveHandle(p).Put(step)
			count++
		case 1:
			_, ok := aliveHandle(p).Get()
			if ok {
				count--
			} else if count > 0 {
				t.Fatalf("step %d: false-empty certification with %d elements in the pool", step, count)
			}
		case 2:
			tgt := r.Intn(segments)
			drain := r.Intn(2) == 0
			wasAlive := p.Alive(tgt)
			killable := wasAlive && liveCount(p) > 1
			if got := p.Kill(tgt, drain); got != killable {
				t.Fatalf("step %d: Kill(%d) = %v, want %v (alive=%v live=%d)",
					step, tgt, got, killable, wasAlive, liveCount(p))
			}
			if killable {
				transitions++
			}
		case 3:
			tgt := r.Intn(segments)
			wasDead := !p.Alive(tgt)
			if got := p.Revive(tgt); got != wasDead {
				t.Fatalf("step %d: Revive(%d) = %v, want %v", step, tgt, got, wasDead)
			}
			if wasDead {
				transitions++
			}
		}
		if got := p.Len(); got != count {
			t.Fatalf("step %d: conservation violated: Len = %d, model = %d", step, got, count)
		}
	}
}

// The Close/steal race window (fixed in this layer): a handle Closing
// while thieves hold its segment's elements mid-TakeOut must not let a
// subsequent observer miss those in-flight elements — Close waits out
// the transfer count. Under -race this also pins the memory safety of
// the close-vs-steal interleaving.
func TestCloseStealRace(t *testing.T) {
	const fill = 64
	iters := 200
	if testing.Short() {
		iters = 20
	}
	for it := 0; it < iters; it++ {
		p := newTestPool(t, Options{Segments: 4, Seed: uint64(it + 1)})
		h0 := p.Handle(0)
		for i := 0; i < fill; i++ {
			h0.Put(i)
		}
		var got atomic.Int64
		var wg sync.WaitGroup
		for w := 1; w < 4; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				h := p.Handle(id)
				for {
					vs := h.GetN(8)
					if len(vs) == 0 {
						h.Close()
						return
					}
					got.Add(int64(len(vs)))
				}
			}(w)
		}
		// Close races the thieves' TakeOut/deposit windows.
		h0.Close()
		wg.Wait()
		if n := int(got.Load()) + p.Len(); n != fill {
			t.Fatalf("iter %d: conservation violated across Close/steal race: got %d + len %d != %d",
				it, got.Load(), p.Len(), fill)
		}
	}
}

// Concurrent churn under the race detector: workers operate while a
// driver performs kills and revives; every element put is either
// consumed or still in the pool at the end. Workers and driver yield as
// they go so that on a single P the driver's churn interleaves with the
// workers' operations instead of running only after they finish.
func TestChurnConcurrentConservation(t *testing.T) {
	const procs = 4
	const perProc = 3000
	p := newTestPool(t, Options{Segments: procs, Policies: policy.Set{Order: search.Tree}, Seed: 23})
	for i := 0; i < procs; i++ {
		p.Handle(i).Register()
	}
	var puts, gets atomic.Int64
	var workers sync.WaitGroup
	for i := 0; i < procs; i++ {
		workers.Add(1)
		go func(id int) {
			defer workers.Done()
			h := p.Handle(id)
			for j := 0; j < perProc; j++ {
				if j%2 == 0 {
					h.Put(j)
					puts.Add(1)
				} else if _, ok := h.Get(); ok {
					gets.Add(1)
				}
				if j%64 == 63 {
					runtime.Gosched()
				}
			}
		}(i)
	}
	// The driver churns until the workers finish. Workers never block
	// forever on a kill: a killed handle's operations fail fast and its
	// loop continues, so the join below terminates.
	stop := make(chan struct{})
	driverDone := make(chan int)
	go func() {
		transitions := 0
		r := rng.NewXoshiro256(99)
		for {
			select {
			case <-stop:
				driverDone <- transitions
				return
			default:
			}
			tgt := r.Intn(procs)
			if p.Kill(tgt, r.Intn(2) == 0) {
				if !p.Revive(tgt) {
					t.Error("revive of killed handle failed")
				}
				transitions += 2
			}
			runtime.Gosched()
		}
	}()
	workers.Wait()
	close(stop)
	transitions := <-driverDone
	if transitions == 0 {
		t.Error("driver performed no transitions; test proved nothing")
	}
	if got, want := int64(p.Len()), puts.Load()-gets.Load(); got != want {
		t.Errorf("conservation violated under concurrent churn: Len = %d, puts-gets = %d", got, want)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestConcurrentDrainKillsConserve races four drain kills, one of them of
// the only non-empty segment: a relocation that dealt its elements in one
// pass over the victims it saw at the start would drop the shares of the
// victims that left mid-deal. Every element must survive.
func TestConcurrentDrainKillsConserve(t *testing.T) {
	const segs, fill = 8, 16384
	iters := 1000
	if testing.Short() {
		iters = 50
	}
	if raceEnabled {
		iters = 10 // ~40 ms each under -race; make stress repeats it 20 times per GOMAXPROCS shape
	}
	for it := 0; it < iters; it++ {
		p := newTestPool(t, Options{Segments: segs, Seed: uint64(it)})
		h0 := p.Handle(0)
		for i := 0; i < fill; i++ {
			h0.Put(i)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, s := range []int{0, 5, 6, 7} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if !p.Kill(s, true) {
					t.Errorf("drain kill of %d refused", s)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := p.Len(); got != fill {
			t.Fatalf("iteration %d: Len = %d after concurrent drain kills, want %d", it, got, fill)
		}
	}
}
