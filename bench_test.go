// Package pools_test holds the top-level benchmark harness: one benchmark
// per table and figure in the paper's evaluation section, plus
// microbenchmarks of the real concurrent pool. Each figure benchmark runs
// the corresponding simulated experiment and reports the paper's headline
// measurement as a custom metric, so `go test -bench .` regenerates the
// numbers EXPERIMENTS.md records (at reduced trial counts; cmd/poolbench
// runs the full ten-trial protocol).
package pools_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"pools"
	"pools/internal/harness"
	"pools/internal/search"
	"pools/internal/workload"
)

// benchCfg runs each sweep point with fewer trials than the paper's ten so
// the full bench suite stays in CI range; shapes are unchanged.
func benchCfg() harness.Config {
	return harness.Config{Trials: 2, Seed: 1989}
}

// BenchmarkFig2 regenerates Figure 2 (average operation time vs job mix,
// tree search, random vs producer/consumer models) and reports the
// sparse-mix and sufficient-mix operation times.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig2(benchCfg())
		b.ReportMetric(r.Random[2].AvgOpTime/1000, "sparse20%-ms/op")
		b.ReportMetric(r.Random[8].AvgOpTime/1000, "rich80%-ms/op")
		b.ReportMetric(r.PC[5].AvgOpTime/1000, "pc5-ms/op")
	}
}

// BenchmarkFig3Fig4 regenerates the linear-search segment traces
// (contiguous vs balanced producers) and reports how many producer
// segments were ever stolen from in each arrangement.
func BenchmarkFig3Fig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unbal := harness.FigTrace(benchCfg(), "Figure 3", search.Linear, workload.Contiguous, 5)
		bal := harness.FigTrace(benchCfg(), "Figure 4", search.Linear, workload.Balanced, 5)
		b.ReportMetric(float64(unbal.ProducersDrained()), "producers-drained-contig")
		b.ReportMetric(float64(bal.ProducersDrained()), "producers-drained-balanced")
	}
}

// BenchmarkFig5Fig6 regenerates the tree-search segment traces.
func BenchmarkFig5Fig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unbal := harness.FigTrace(benchCfg(), "Figure 5", search.Tree, workload.Contiguous, 5)
		bal := harness.FigTrace(benchCfg(), "Figure 6", search.Tree, workload.Balanced, 5)
		b.ReportMetric(float64(unbal.ProducersDrained()), "producers-drained-contig")
		b.ReportMetric(float64(bal.ProducersDrained()), "producers-drained-balanced")
	}
}

// BenchmarkFig7 regenerates Figure 7 (elements stolen per steal vs
// producer count, errata orientation) and reports the balanced and
// unbalanced means over the mid-range producer counts.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig7(benchCfg())
		var bal, unbal float64
		for k := 6; k <= 14; k++ {
			bal += r.Balanced[k].ElementsStolen / 9
			unbal += r.Unbalanced[k].ElementsStolen / 9
		}
		b.ReportMetric(bal, "balanced-stolen/steal")
		b.ReportMetric(unbal, "unbalanced-stolen/steal")
	}
}

// BenchmarkAlgos regenerates the Section 4.3 algorithm comparison and
// reports segments examined per steal for each algorithm at the sparse
// random mix (the paper's "tree examines many fewer segments").
func BenchmarkAlgos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.AlgoCompare(benchCfg())
		for _, r := range rows {
			if r.Scenario != "random 30% adds (sparse)" {
				continue
			}
			b.ReportMetric(r.Point.SegmentsExamined, r.Kind.String()+"-segs/steal")
			b.ReportMetric(r.Point.AvgOpTime/1000, r.Kind.String()+"-ms/op")
		}
	}
}

// BenchmarkDelaySweep regenerates the Section 4.3 remote-delay sweep and
// reports the tree/best convergence ratio at zero and maximal delay.
func BenchmarkDelaySweep(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 1
	for i := 0; i < b.N; i++ {
		rows := harness.DelaySweep(cfg)
		ratio := func(r harness.DelayRow) float64 {
			best := r.Times[search.Linear]
			if r.Times[search.Random] < best {
				best = r.Times[search.Random]
			}
			if best == 0 {
				return 0
			}
			return r.Times[search.Tree] / best
		}
		b.ReportMetric(ratio(rows[0]), "tree/best-delay0")
		b.ReportMetric(ratio(rows[len(rows)-2]), "tree/best-delay100ms")
	}
}

// BenchmarkStealPolicy regenerates the steal-half vs steal-one ablation.
func BenchmarkStealPolicy(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 1
	for i := 0; i < b.N; i++ {
		rows := harness.StealPolicyAblation(cfg)
		for _, r := range rows {
			if r.Kind != search.Linear {
				continue
			}
			name := "half"
			if r.StealOne {
				name = "one"
			}
			b.ReportMetric(r.Point.StealsPerOp, "steal-"+name+"-steals/op")
		}
	}
}

// BenchmarkApp regenerates the Section 4.4 application study at depth 2
// (4032 positions; cmd/poolbench -exp app runs the paper's full depth 3)
// and reports the 16-processor speedups.
func BenchmarkApp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.App(harness.Config{Seed: 1989}, harness.DefaultAppCosts(), 2,
			[]int{1, 16}, harness.AppImpls())
		for _, r := range rows {
			if r.Procs == 16 {
				b.ReportMetric(r.Speedup, r.Impl.String()+"-speedup16")
			}
		}
	}
}

// --- Real concurrent pool microbenchmarks (wall clock) ---

// BenchmarkGetHotPath measures the allocation-free local fast path — the
// operation pair the 0 allocs/op contract covers (TestHotPathAllocFree
// enforces it; this benchmark reports the number under the regression
// gate alongside the time). Stats and topology accounting are on, the
// costliest configuration the contract still holds for.
func BenchmarkGetHotPath(b *testing.B) {
	p, err := pools.New[int](pools.Options{
		Segments: 8, CollectStats: true, Topology: pools.ClusterTopology{Size: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := p.Handle(0)
	h.Put(0)
	h.Get()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Put(i)
		if _, ok := h.Get(); !ok {
			b.Fatal("local Get missed")
		}
	}
}

// BenchmarkGetHotPathTraced measures the stats-on fast path with the
// flight recorder attached: identical loop to BenchmarkGetHotPath, so
// the gap between the two is what tracing adds to a local op. Local hits
// record nothing (only a search's outcome reaches the recorder), so the
// gap should stay near zero. Before the timer starts, handle 1 steals
// from handle 0; afterwards the steal's reserve_transfer must still be on
// handle 1's timeline and handle 0's recorder must hold no new event.
// Pinned in BENCH_BASELINE.json so recorder overhead can't creep.
func BenchmarkGetHotPathTraced(b *testing.B) {
	p, err := pools.New[int](pools.Options{
		Segments: 8, CollectStats: true, Topology: pools.ClusterTopology{Size: 2},
		TraceBuf: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	stealFromHandle0(b, p)
	h := p.Handle(0)
	h.Put(0)
	h.Get()
	held := p.Tracer(0).Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Put(i)
		if _, ok := h.Get(); !ok {
			b.Fatal("local Get missed")
		}
	}
	b.StopTimer()
	requireTraceKept(b, p, held)
}

// BenchmarkGetHotPathHist measures the same stats-on fast path while
// confirming what the stats kept: identical loop to BenchmarkGetHotPath,
// then a check that every operation was counted and that the timed sample
// (about one operation in 64, the handle's first among them) reached
// the per-op latency histogram. Recording a sample is three atomic adds —
// still 0 allocs/op; percentile math happens only at report time.
func BenchmarkGetHotPathHist(b *testing.B) {
	p, err := pools.New[int](pools.Options{
		Segments: 8, CollectStats: true, Topology: pools.ClusterTopology{Size: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := p.Handle(0)
	h.Put(0)
	h.Get()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Put(i)
		if _, ok := h.Get(); !ok {
			b.Fatal("local Get missed")
		}
	}
	b.StopTimer()
	// The histogram buckets whole µs, so sub-µs samples all land in its
	// lowest bucket; only the counts are asserted here.
	st := p.Stats()
	if want := int64(2 * (b.N + 1)); st.OpCount() != want {
		b.Fatalf("OpCount = %d, want %d", st.OpCount(), want)
	}
	if st.OpLat.N() == 0 {
		b.Fatal("no per-op latencies recorded")
	}
}

// BenchmarkNewObserved measures building a pool in the always-on
// observability configuration (stats, cluster topology and a 1024-event
// flight recorder per handle on 16 segments) — the set-up cost a
// per-request or per-task pool pays. B/op is the memory it commits up
// front; the recorder rings are not part of it, since a ring is
// allocated by its first event.
func BenchmarkNewObserved(b *testing.B) {
	opts := pools.Options{
		Segments: 16, CollectStats: true, Topology: pools.ClusterTopology{Size: 2},
		TraceBuf: 1024,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pools.New[int](opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolLocalPutGet measures the uncontended local fast path.
func BenchmarkPoolLocalPutGet(b *testing.B) {
	for _, kind := range search.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			p, err := pools.New[int](pools.Options{Segments: 4, Policies: pools.PolicySet{Order: kind}})
			if err != nil {
				b.Fatal(err)
			}
			h := p.Handle(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Put(i)
				h.Get()
			}
		})
	}
}

// BenchmarkPoolLocalPutGetDeep is the owner path in forkjoin's shape:
// 32 Puts then 32 Gets on one handle, so the Gets pop a deep ring rather
// than racing thieves for its last element. ns/element is one Put plus
// one Get; minus segment's BenchmarkOwnerDequePushPop/depth=32 it is the
// handle layer's cost.
func BenchmarkPoolLocalPutGetDeep(b *testing.B) {
	const depth = 32
	p, err := pools.New[int](pools.Options{Segments: 4})
	if err != nil {
		b.Fatal(err)
	}
	h := p.Handle(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < depth; j++ {
			h.Put(j)
		}
		for j := 0; j < depth; j++ {
			h.Get()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*depth), "ns/element")
}

// BenchmarkBatchPutGet compares the batch operations against an
// equivalent loop of single-element operations on the same workload: move
// `batch` elements into the local segment and back out. At batch >= 8 the
// one-lock batch path must win — the amortization the tentpole claims.
func BenchmarkBatchPutGet(b *testing.B) {
	for _, batch := range []int{1, 8, 64, 512} {
		items := make([]int, batch)
		b.Run(fmt.Sprintf("loop-%d", batch), func(b *testing.B) {
			p, err := pools.New[int](pools.Options{Segments: 4})
			if err != nil {
				b.Fatal(err)
			}
			h := p.Handle(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, v := range items {
					h.Put(v)
				}
				for j := 0; j < batch; j++ {
					h.Get()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/element")
		})
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			p, err := pools.New[int](pools.Options{Segments: 4})
			if err != nil {
				b.Fatal(err)
			}
			h := p.Handle(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.PutAll(items)
				h.GetN(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/element")
		})
	}
}

// BenchmarkBatchSteal measures GetN across the steal path: the consumer's
// segment is always dry, so every batch surfaces a steal-half transfer,
// versus draining the same transfer one Get at a time.
func BenchmarkBatchSteal(b *testing.B) {
	const batch = 16
	items := make([]int, 2*batch)
	b.Run("loop", func(b *testing.B) {
		p, err := pools.New[int](pools.Options{Segments: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		producer := p.Handle(9)
		consumer := p.Handle(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			producer.PutAll(items)
			for j := 0; j < 2*batch; j++ {
				if _, ok := consumer.Get(); !ok {
					b.Fatal("get failed")
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		p, err := pools.New[int](pools.Options{Segments: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		producer := p.Handle(9)
		consumer := p.Handle(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			producer.PutAll(items)
			drained := 0
			for drained < 2*batch {
				out := consumer.GetN(2 * batch)
				if len(out) == 0 {
					b.Fatal("GetN failed")
				}
				drained += len(out)
			}
		}
	})
}

// BenchmarkBurstSim regenerates the burst sweep's endpoints on the
// simulated Butterfly and reports the per-element amortization ratio.
func BenchmarkBurstSim(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 1
	for i := 0; i < b.N; i++ {
		rows := harness.BurstSweep(cfg, search.Tree, 5, []int{1, 16})
		b.ReportMetric(rows[0].Point.PerElementTime, "batch1-us/elem")
		b.ReportMetric(rows[1].Point.PerElementTime, "batch16-us/elem")
	}
}

// BenchmarkPoolSteal measures the steal path: the consumer's segment is
// always empty, so every Get searches and splits.
func BenchmarkPoolSteal(b *testing.B) {
	for _, kind := range search.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			p, err := pools.New[int](pools.Options{Segments: 16, Policies: pools.PolicySet{Order: kind}, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			producer := p.Handle(9)
			consumer := p.Handle(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				producer.Put(i)
				producer.Put(i)
				if _, ok := consumer.Get(); !ok {
					b.Fatal("steal failed")
				}
				consumer.Get() // drain what the steal brought along
			}
		})
	}
}

// BenchmarkPoolContended measures throughput with every segment's worker
// hammering the pool concurrently at a slightly-sufficient mix. It runs
// one worker per GOMAXPROCS on as many segments, so `-cpu 1,2,...`
// traces how the pool scales on the host rather than oversubscribing it.
func BenchmarkPoolContended(b *testing.B) {
	for _, kind := range search.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			workers := runtime.GOMAXPROCS(0)
			p, err := pools.New[int](pools.Options{Segments: workers, Policies: pools.PolicySet{Order: kind}, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < workers; i++ {
				p.Handle(i).Register()
			}
			perWorker := b.N/workers + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					h := p.Handle(id)
					for i := 0; i < perWorker; i++ {
						if i%2 == 0 {
							h.Put(i)
						} else {
							h.Get()
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkTreeRounds measures a producer/consumer handoff under the
// tree search, whose steals read and raise the pool's atomic round
// counters (the real substrate's "Tree rounds" row in
// docs/ARCHITECTURE.md).
func BenchmarkTreeRounds(b *testing.B) {
	b.Run("atomic", func(b *testing.B) {
		p, err := pools.New[int](pools.Options{
			Segments: 16, Policies: pools.PolicySet{Order: pools.SearchTree},
		})
		if err != nil {
			b.Fatal(err)
		}
		producer := p.Handle(15)
		consumer := p.Handle(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			producer.Put(i)
			if _, ok := consumer.Get(); !ok {
				b.Fatal("get failed")
			}
		}
	})
}

// BenchmarkDirectedAdds compares the Section 5 hint extension against the
// plain pool on a producer/consumer handoff loop.
func BenchmarkDirectedAdds(b *testing.B) {
	for _, c := range []struct {
		name  string
		place pools.Placement
	}{{"off", pools.LocalPlacement{}}, {"on", pools.GiftAllPlacement{}}} {
		b.Run(c.name, func(b *testing.B) {
			p, err := pools.New[int](pools.Options{
				Segments: 4, Policies: pools.PolicySet{Place: c.place},
			})
			if err != nil {
				b.Fatal(err)
			}
			producer := p.Handle(2)
			consumer := p.Handle(0)
			consumer.Register()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				producer.Put(i)
				if _, ok := consumer.Get(); !ok {
					b.Fatal("get failed")
				}
			}
		})
	}
}

// BenchmarkPlacedPut measures one Put under each size-aware placement
// on a 16-segment pool: the candidates the handle's plan fixed when the
// pool was built, one size probe each, and the add to the best-scored
// segment. near-emptiest runs a clustered cost model with its default
// probe budget; tenant-fair runs four tenants. The pool is drained with
// the timer stopped every 4096 adds, so segment sizes stay bounded.
func BenchmarkPlacedPut(b *testing.B) {
	costs := pools.ButterflyCosts().WithTopology(pools.ClusterTopology{Size: 4}).WithExtraDelay(10)
	for _, c := range []struct {
		name  string
		place pools.Placement
	}{
		{"emptiest", pools.EmptiestPlacement{}},
		{"near-emptiest", pools.NearestEmptiestPlacement{Model: costs}},
		{"tenant-fair", pools.TenantFairPlacement{Map: pools.EvenTenants(16, 4)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := pools.New[int](pools.Options{
				Segments: 16, Policies: pools.PolicySet{Place: c.place},
			})
			if err != nil {
				b.Fatal(err)
			}
			h := p.Handle(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Put(i)
				if i%4096 == 4095 {
					b.StopTimer()
					p.Drain()
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkKeyedPool measures the distinguishable-elements extension.
func BenchmarkKeyedPool(b *testing.B) {
	p, err := pools.NewKeyed[int, int](pools.KeyedOptions{Segments: 8})
	if err != nil {
		b.Fatal(err)
	}
	producer := p.Handle(5)
	consumer := p.Handle(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		producer.Put(i%4, i)
		if _, ok := consumer.Get(i % 4); !ok {
			b.Fatal("get failed")
		}
	}
}

// BenchmarkRealProtocol runs the paper's workload end-to-end on the real
// pool (wall clock) for each algorithm.
func BenchmarkRealProtocol(b *testing.B) {
	for _, kind := range search.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			wl := workload.Paper(workload.RandomOps)
			wl.AddFraction = 0.5
			wl.Procs = 8
			wl.TotalOps = 2000
			wl.InitialElements = 128
			for i := 0; i < b.N; i++ {
				if _, err := harness.RealRun(harness.RealRunConfig{
					Workload: wl, Policies: pools.PolicySet{Order: kind}, Seed: uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
