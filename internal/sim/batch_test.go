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
// simulator and checks element conservation and batch accounting.
func TestRunBurstConservation(t *testing.T) {
	wl := workload.Config{
		Procs:           8,
		Model:           workload.Burst,
		Producers:       3,
		Arrangement:     workload.Balanced,
		BatchSize:       16,
		TotalOps:        2000,
		InitialElements: 64,
	}
	res := Run(RunConfig{Workload: wl, Policies: policy.Set{Order: search.Tree}, Costs: numa.ButterflyCosts(), Seed: 5})
	st := res.Stats
	if st.BatchAdds == 0 || st.BatchRemoves == 0 {
		t.Fatalf("burst run recorded no batch ops: adds=%d removes=%d", st.BatchAdds, st.BatchRemoves)
	}
	total := int64(wl.InitialElements) + st.Adds
	if st.Removes+int64(res.Remaining) != total {
		t.Fatalf("conservation violated: removes=%d remaining=%d added=%d", st.Removes, res.Remaining, total)
	}
	// Budget accounting: one unit per element moved plus one per abort,
	// exactly as in the single-element protocol (short batches refund).
	if got := st.Ops() + st.Aborts; got != int64(wl.TotalOps) {
		t.Fatalf("ops+aborts = %d, want the full budget %d", got, wl.TotalOps)
	}
	// The achieved add batch size should approach the configured one.
	if avg := float64(st.Adds) / float64(st.BatchAdds); avg < 8 {
		t.Fatalf("average add batch %.1f, want near %d", avg, wl.BatchSize)
	}
}
