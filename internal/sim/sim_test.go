package sim

import (
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/workload"
)

func TestSimSingleProcClock(t *testing.T) {
	var r Resource
	makespan := RunProcs(func(e *Env) {
		e.Charge(&r, 10)
		e.Compute(5)
		e.Charge(&r, 20)
	})
	if makespan != 35 {
		t.Fatalf("makespan = %d, want 35", makespan)
	}
	if r.Waited() != 0 {
		t.Fatalf("uncontended resource waited %d", r.Waited())
	}
}

func TestSimResourceContentionSerializes(t *testing.T) {
	// Two processors hammer one resource with equal-cost accesses: the
	// makespan must be the *sum* of costs (full serialization), and the
	// waiting time must be charged.
	var r Resource
	body := func(e *Env) {
		for i := 0; i < 10; i++ {
			e.Charge(&r, 10)
		}
	}
	if makespan := RunProcs(body, body); makespan != 200 {
		t.Fatalf("makespan = %d, want 200 (20 serialized accesses)", makespan)
	}
	if r.Waited() == 0 {
		t.Fatal("contention charged no waiting time")
	}
}

func TestSimIndependentResourcesParallel(t *testing.T) {
	// Two processors on private resources run fully in parallel.
	var r0, r1 Resource
	makespan := RunProcs(func(e *Env) {
		for i := 0; i < 10; i++ {
			e.Charge(&r0, 10)
		}
	}, func(e *Env) {
		for i := 0; i < 10; i++ {
			e.Charge(&r1, 10)
		}
	})
	if makespan != 100 {
		t.Fatalf("makespan = %d, want 100 (perfect overlap)", makespan)
	}
}

func TestSimDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		var r Resource
		var order []int
		bodies := make([]func(*Env), 4)
		for id := range bodies {
			bodies[id] = func(e *Env) {
				for i := 0; i < 5; i++ {
					e.Charge(&r, int64(id+1))
					order = append(order, id)
				}
			}
		}
		RunProcs(bodies...)
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 20 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSimClocksMonotonePerProc(t *testing.T) {
	var r Resource
	body := func(e *Env) {
		prev := e.Now()
		for i := 0; i < 20; i++ {
			e.Charge(&r, 7)
			if e.Now() < prev {
				t.Errorf("clock went backwards: %d -> %d", prev, e.Now())
			}
			prev = e.Now()
		}
	}
	RunProcs(body, body, body)
}

func TestSimPanicsOnBadUse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RunProcs with no bodies did not panic")
		}
	}()
	RunProcs()
}

// TestRunProcsPanicReachesCaller: a panic in one body surfaces in
// RunProcs' caller even while a peer is suspended mid-loop; the peer,
// which would run forever, is never resumed.
func TestRunProcsPanicReachesCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	RunProcs(func(e *Env) {
		for {
			e.Compute(1)
		}
	}, func(e *Env) {
		e.Compute(5)
		panic("boom")
	})
	t.Fatal("RunProcs returned")
}

func TestSimPoolLocalOps(t *testing.T) {
	pool := NewPool[int](PoolConfig{Procs: 4, Costs: numa.ButterflyCosts()})
	RunProcs(func(e *Env) {
		pr := pool.Proc(e)
		pr.Put(11)
		pr.Put(22)
		if v, ok := pr.Get(); !ok || v != 22 {
			t.Errorf("Get = (%d,%v)", v, ok)
		}
	})
	if pool.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pool.Len())
	}
	// Local add (70) + add (70) + remove (110) = 250.
}

func TestSimPoolStealAcrossProcs(t *testing.T) {
	for _, kind := range search.Kinds() {
		pool := NewPool[int](PoolConfig{Procs: 4, Policies: policy.Set{Order: kind}, Costs: numa.ButterflyCosts(), Seed: 5})
		pool.Seed(8, func(i int) int { return i }) // 2 per segment
		got := make([][]int, 4)
		bodies := make([]func(*Env), 4)
		for id := range bodies {
			bodies[id] = func(e *Env) {
				pr := pool.Proc(e)
				for {
					v, ok := pr.Get()
					if !ok {
						return
					}
					got[id] = append(got[id], v)
				}
			}
		}
		RunProcs(bodies...)
		seen := map[int]bool{}
		total := 0
		for _, g := range got {
			for _, v := range g {
				if seen[v] {
					t.Fatalf("%v: element %d delivered twice", kind, v)
				}
				seen[v] = true
				total++
			}
		}
		if total != 8 || pool.Len() != 0 {
			t.Fatalf("%v: delivered %d, remaining %d", kind, total, pool.Len())
		}
	}
}

func TestSimPoolAbortsWhenAllSearching(t *testing.T) {
	// Empty pool, all consumers: every Get must abort (not hang).
	pool := NewPool[Token](PoolConfig{Procs: 4, Costs: numa.ButterflyCosts()})
	aborted := 0
	body := func(e *Env) {
		pr := pool.Proc(e)
		if _, ok := pr.Get(); !ok {
			aborted++
		}
	}
	RunProcs(body, body, body, body)
	if aborted != 4 {
		t.Fatalf("aborted = %d, want 4", aborted)
	}
}

func TestRunPaperProtocolConservation(t *testing.T) {
	for _, kind := range search.Kinds() {
		wl := workload.Paper(workload.RandomOps)
		wl.AddFraction = 0.5
		res := Run(RunConfig{Workload: wl, Policies: policy.Set{Order: kind}, Costs: numa.ButterflyCosts(), Seed: 42})
		st := res.Stats
		if got := st.Ops() + st.Aborts; got != int64(wl.TotalOps) {
			t.Fatalf("%v: ops+aborts = %d, want %d", kind, got, wl.TotalOps)
		}
		// Conservation: seed + adds - removes = remaining.
		want := int64(wl.InitialElements) + st.Adds - st.Removes
		if int64(res.Remaining) != want {
			t.Fatalf("%v: remaining = %d, want %d", kind, res.Remaining, want)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%v: makespan = %d", kind, res.Makespan)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	wl := workload.Paper(workload.ProducerConsumer)
	wl.Producers = 5
	cfg := RunConfig{Workload: wl, Policies: policy.Set{Order: search.Tree}, Costs: numa.ButterflyCosts(), Seed: 9}
	a := Run(cfg)
	b := Run(cfg)
	if a.Makespan != b.Makespan || a.Stats.AvgOpTime() != b.Stats.AvgOpTime() ||
		a.Stats.Steals != b.Stats.Steals || a.Remaining != b.Remaining {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	c := Run(RunConfig{Workload: wl, Policies: policy.Set{Order: search.Tree}, Costs: numa.ButterflyCosts(), Seed: 10})
	if a.Makespan == c.Makespan && a.Stats.Steals == c.Stats.Steals {
		t.Log("warning: different seeds produced identical results (possible but suspicious)")
	}
}

func TestRunSufficientMixHasFewSteals(t *testing.T) {
	// "no steals are performed with a sufficient mix" — with 80% adds the
	// pool grows; steals should be essentially absent.
	wl := workload.Paper(workload.RandomOps)
	wl.AddFraction = 0.8
	res := Run(RunConfig{Workload: wl, Costs: numa.ButterflyCosts(), Seed: 1})
	if frac := res.Stats.StealFraction(); frac > 0.05 {
		t.Fatalf("steal fraction %.3f at 80%% adds, want ~0", frac)
	}
}

func TestRunSparseMixStealsOften(t *testing.T) {
	wl := workload.Paper(workload.RandomOps)
	wl.AddFraction = 0.3
	res := Run(RunConfig{Workload: wl, Costs: numa.ButterflyCosts(), Seed: 1})
	if res.Stats.Steals == 0 {
		t.Fatal("sparse mix produced no steals")
	}
	// Sparse runs drain the pool; average op time must exceed the
	// sufficient-mix time.
	wl.AddFraction = 0.9
	rich := Run(RunConfig{Workload: wl, Costs: numa.ButterflyCosts(), Seed: 1})
	if res.Stats.AvgOpTime() <= rich.Stats.AvgOpTime() {
		t.Fatalf("sparse avg %.1f <= sufficient avg %.1f", res.Stats.AvgOpTime(), rich.Stats.AvgOpTime())
	}
}

func TestRunProducerConsumerStealsAtAllMixes(t *testing.T) {
	// "the producer/consumer model forces consumers to steal all of the
	// elements they use, regardless of the ratio" — even at 50%+ mixes.
	wl := workload.Paper(workload.ProducerConsumer)
	wl.Producers = 10 // 62% adds: sufficient
	res := Run(RunConfig{Workload: wl, Costs: numa.ButterflyCosts(), Seed: 3})
	if res.Stats.Steals == 0 {
		t.Fatal("producer/consumer with sufficient mix still must steal")
	}
}

func TestRunTraceRecordsSegments(t *testing.T) {
	wl := workload.Paper(workload.ProducerConsumer)
	wl.Producers = 5
	res := Run(RunConfig{Workload: wl, Costs: numa.ButterflyCosts(), Seed: 3, Trace: true})
	if len(res.Traces) != 16 {
		t.Fatalf("traces = %d, want 16", len(res.Traces))
	}
	points := 0
	for i := range res.Traces {
		points += res.Traces[i].Len()
	}
	if points < 1000 {
		t.Fatalf("only %d trace points over 5000 ops", points)
	}
}

func TestRunZeroProducersAborts(t *testing.T) {
	// All consumers on a 320-element pool: exactly 320 removes succeed and
	// the rest abort; the run must terminate.
	wl := workload.Paper(workload.ProducerConsumer)
	wl.Producers = 0
	res := Run(RunConfig{Workload: wl, Policies: policy.Set{Order: search.Random}, Costs: numa.ButterflyCosts(), Seed: 2})
	if res.Stats.Removes != int64(wl.InitialElements) {
		t.Fatalf("removes = %d, want %d", res.Stats.Removes, wl.InitialElements)
	}
	if res.Stats.Aborts == 0 {
		t.Fatal("expected aborts after the pool drained")
	}
}

func TestRunAllProducers(t *testing.T) {
	wl := workload.Paper(workload.ProducerConsumer)
	wl.Producers = 16
	res := Run(RunConfig{Workload: wl, Policies: policy.Set{Order: search.Tree}, Costs: numa.ButterflyCosts(), Seed: 2})
	if res.Stats.Adds != int64(wl.TotalOps) {
		t.Fatalf("adds = %d, want %d", res.Stats.Adds, wl.TotalOps)
	}
	if res.Remaining != wl.InitialElements+wl.TotalOps {
		t.Fatalf("remaining = %d", res.Remaining)
	}
}

func TestRunExtraDelayRaisesOpTimes(t *testing.T) {
	wl := workload.Paper(workload.RandomOps)
	wl.AddFraction = 0.3
	base := Run(RunConfig{Workload: wl, Costs: numa.ButterflyCosts(), Seed: 5})
	slow := Run(RunConfig{Workload: wl,
		Costs: numa.ButterflyCosts().WithExtraDelay(1000), Seed: 5})
	if slow.Stats.AvgOpTime() <= base.Stats.AvgOpTime() {
		t.Fatalf("extra delay did not slow ops: %.1f vs %.1f",
			slow.Stats.AvgOpTime(), base.Stats.AvgOpTime())
	}
}

func BenchmarkRunRandomMix30Linear(b *testing.B) {
	wl := workload.Paper(workload.RandomOps)
	wl.AddFraction = 0.3
	for i := 0; i < b.N; i++ {
		Run(RunConfig{Workload: wl, Costs: numa.ButterflyCosts(), Seed: uint64(i)})
	}
}

func BenchmarkRunPC5Tree(b *testing.B) {
	wl := workload.Paper(workload.ProducerConsumer)
	wl.Producers = 5
	for i := 0; i < b.N; i++ {
		Run(RunConfig{Workload: wl, Policies: policy.Set{Order: search.Tree}, Costs: numa.ButterflyCosts(), Seed: uint64(i)})
	}
}

func TestSimPoolRetireAllowsRemainingToAbort(t *testing.T) {
	// Two consumers; one retires after its first failed Get. The survivor
	// must still reach the all-searching abort against the reduced
	// participant count rather than searching forever.
	pool := NewPool[Token](PoolConfig{Procs: 2, Costs: numa.ButterflyCosts()})
	aborted := make([]bool, 2)
	RunProcs(func(e *Env) {
		pr := pool.Proc(e)
		if _, ok := pr.Get(); !ok {
			aborted[0] = true
		}
		pr.Retire()
	}, func(e *Env) {
		pr := pool.Proc(e)
		for i := 0; i < 3; i++ {
			if _, ok := pr.Get(); !ok {
				aborted[1] = true
			}
		}
		pr.Retire()
	})
	if !aborted[0] || !aborted[1] {
		t.Fatalf("aborts = %v, want both", aborted)
	}
}

func TestSimPoolInjectSeedsSegmentZero(t *testing.T) {
	pool := NewPool[int](PoolConfig{Procs: 4, Costs: numa.ButterflyCosts()})
	pool.Inject(7)
	if pool.SegmentLen(0) != 1 || pool.Len() != 1 {
		t.Fatalf("Inject misplaced: seg0=%d len=%d", pool.SegmentLen(0), pool.Len())
	}
	RunProcs(func(e *Env) {
		pr := pool.Proc(e)
		if v, ok := pr.Get(); !ok || v != 7 {
			t.Errorf("Get = (%d,%v)", v, ok)
		}
	})
}

func TestSimPoolEmptyAbortLatchClearsOnPut(t *testing.T) {
	pool := NewPool[Token](PoolConfig{Procs: 2, Costs: numa.ButterflyCosts()})
	var firstAborted, secondOK bool
	RunProcs(func(e *Env) {
		pr := pool.Proc(e)
		if _, ok := pr.Get(); !ok {
			firstAborted = true // latches emptyAbort
		}
		// Retry until the late producer's Put clears the latch; each
		// failed attempt advances this processor's virtual clock, so the
		// loop is bounded.
		for i := 0; i < 5000; i++ {
			if _, ok := pr.Get(); ok {
				secondOK = true
				return
			}
		}
	}, func(e *Env) {
		pr := pool.Proc(e)
		pr.Get() // joins the all-searching abort
		e.Compute(100000)
		pr.Put(Token{})
		pr.Retire()
	})
	if !firstAborted {
		t.Fatal("first Get should have aborted on the empty pool")
	}
	if !secondOK {
		t.Fatal("Put did not clear the empty-abort latch")
	}
}

func TestRunDynamicRolesWorkload(t *testing.T) {
	wl := workload.Paper(workload.ProducerConsumer)
	wl.Producers = 4
	wl.RoleFlipEvery = 10
	res := Run(RunConfig{Workload: wl, Costs: numa.ButterflyCosts(), Seed: 6})
	if res.Stats.Adds == 0 || res.Stats.Removes == 0 {
		t.Fatalf("rotation produced a degenerate run: %+v", res.Stats)
	}
	// With rotating roles every processor eventually adds.
	producersSeen := 0
	for _, st := range res.PerProc {
		if st.Adds > 0 {
			producersSeen++
		}
	}
	// Rotation spreads production well beyond the 4 static producer slots
	// (processors reach rotations at slightly different op counts, so a
	// straggler may not produce before the budget ends).
	if producersSeen < 3*wl.Procs/4 {
		t.Fatalf("only %d/%d processors ever produced under rotation", producersSeen, wl.Procs)
	}
}

func TestResourceChargeNegativeClamped(t *testing.T) {
	var r Resource
	makespan := RunProcs(func(e *Env) {
		e.Charge(&r, -50)
		e.Compute(10)
	})
	if makespan != 10 {
		t.Fatalf("makespan = %d, want 10 (negative cost clamps to 0)", makespan)
	}
}
