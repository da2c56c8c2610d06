package sim

import (
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/workload"
)

// TestProcBatchCharging: a PutAll of k elements charges one segment
// access, so it must cost the same virtual time as a single Put.
func TestProcBatchCharging(t *testing.T) {
	costs := numa.ButterflyCosts()
	run := func(body func(pr *Proc[Token])) int64 {
		p := NewPool[Token](PoolConfig{Procs: 1, Costs: costs})
		return RunProcs(func(env *Env) {
			body(p.Proc(env))
		})
	}
	single := run(func(pr *Proc[Token]) { pr.Put(Token{}) })
	batch := run(func(pr *Proc[Token]) { pr.PutAll(make([]Token, 64)) })
	if batch != single {
		t.Fatalf("PutAll(64) charged %d µs, single Put charged %d: batch should amortize to one access", batch, single)
	}

	getSingle := run(func(pr *Proc[Token]) {
		pr.PutAll(make([]Token, 64))
		pr.Get()
	})
	getBatch := run(func(pr *Proc[Token]) {
		pr.PutAll(make([]Token, 64))
		pr.GetN(64)
	})
	if getBatch != getSingle {
		t.Fatalf("GetN(64) charged %d µs, single Get charged %d", getBatch, getSingle)
	}
}

// TestRunBurstConservation runs the burst model end-to-end on the
// simulator and checks element conservation and batch accounting: on
// eight processors under the tree search, and on the four-processor
// workload the harness's real-pool burst tests run, under the default and
// the adaptive set. Whether a real run's producers claim an op before its
// consumers spend the budget is up to the scheduler; here it is decided
// by the seed, so the batch counts are asserted here.
func TestRunBurstConservation(t *testing.T) {
	small := workload.Config{
		Procs:           4,
		Model:           workload.Burst,
		Producers:       2,
		Arrangement:     workload.Balanced,
		BatchSize:       8,
		TotalOps:        400,
		InitialElements: 32,
	}
	adaptive, err := policy.Named("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		wl   workload.Config
		pol  policy.Set
		seed uint64
	}{
		{"tree-8", workload.Config{
			Procs:           8,
			Model:           workload.Burst,
			Producers:       3,
			Arrangement:     workload.Balanced,
			BatchSize:       16,
			TotalOps:        2000,
			InitialElements: 64,
		}, policy.Set{Order: search.Tree}, 5},
		{"default-4", small, policy.Set{}, 9},
		{"adaptive-4", small, adaptive, 9},
	} {
		t.Run(c.name, func(t *testing.T) {
			wl := c.wl
			res := Run(RunConfig{Workload: wl, Policies: c.pol, Costs: numa.ButterflyCosts(), Seed: c.seed})
			st := res.Stats
			if st.BatchAdds == 0 || st.BatchRemoves == 0 {
				t.Fatalf("burst run recorded no batch ops: adds=%d removes=%d", st.BatchAdds, st.BatchRemoves)
			}
			total := int64(wl.InitialElements) + st.Adds
			if st.Removes+int64(res.Remaining) != total {
				t.Fatalf("conservation violated: removes=%d remaining=%d added=%d", st.Removes, res.Remaining, total)
			}
			// Budget accounting: one unit per element moved plus one per
			// abort, exactly as in the single-element protocol (short
			// batches refund).
			if got := st.Ops() + st.Aborts; got != int64(wl.TotalOps) {
				t.Fatalf("ops+aborts = %d, want the full budget %d", got, wl.TotalOps)
			}
			// The achieved add batch size should approach the configured one.
			if avg := float64(st.Adds) / float64(st.BatchAdds); avg < float64(wl.BatchSize)/2 {
				t.Fatalf("average add batch %.1f, want near %d", avg, wl.BatchSize)
			}
		})
	}
}
