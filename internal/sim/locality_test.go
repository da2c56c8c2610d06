package sim

import (
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/workload"
)

// localityTrial runs one sparse random-ops trial under the given victim
// order on a clustered machine with the given added remote delay.
func localityTrial(t *testing.T, set policy.Set, extra int64, seed uint64) RunResult {
	t.Helper()
	costs := numa.ButterflyCosts().WithTopology(numa.Clusters{Size: 4}).WithExtraDelay(extra)
	w := workload.Config{
		Procs:           16,
		Model:           workload.RandomOps,
		AddFraction:     0.3,
		TotalOps:        1200,
		InitialElements: 96,
	}
	return Run(RunConfig{
		Workload: w, Costs: costs, Seed: seed, Policies: set,
	})
}

// TestLocalityOrderBeatsBlindUnderDelay checks the tentpole property in
// simulation: on a clustered machine with a large added remote delay, the
// cost-ranked victim order finishes the same workload in less virtual
// time than the blind random and tree orders (linear, the strongest blind
// order here, must at least not dominate it).
func TestLocalityOrderBeatsBlindUnderDelay(t *testing.T) {
	const extra = 5000
	mk := func(order string) int64 {
		var set policy.Set
		costs := numa.ButterflyCosts().WithTopology(numa.Clusters{Size: 4}).WithExtraDelay(extra)
		switch order {
		case "locality":
			set = policy.Set{Order: policy.LocalityOrder{Model: costs}}
		case "random":
			set = policy.Set{Order: search.Random}
		case "tree":
			set = policy.Set{Order: search.Tree}
		case "linear":
			set = policy.Set{Order: search.Linear}
		}
		var total int64
		for seed := uint64(1); seed <= 3; seed++ {
			total += localityTrial(t, set, extra, seed).Makespan
		}
		return total
	}
	loc := mk("locality")
	if ran := mk("random"); loc >= ran {
		t.Fatalf("locality makespan %d >= random %d under clustered delay", loc, ran)
	}
	if tr := mk("tree"); loc >= tr {
		t.Fatalf("locality makespan %d >= tree %d under clustered delay", loc, tr)
	}
	if lin := mk("linear"); loc > lin+lin/10 {
		t.Fatalf("locality makespan %d more than 10%% above linear %d", loc, lin)
	}
}

// TestLocalityFallbackMatchesLinear checks that on the flat Butterfly
// (victim-uniform costs) the locality order is exactly its linear
// fallback: byte-identical results for the same seed.
func TestLocalityFallbackMatchesLinear(t *testing.T) {
	costs := numa.ButterflyCosts() // no topology, no extra: uniform
	w := workload.Config{
		Procs: 8, Model: workload.RandomOps, AddFraction: 0.3,
		TotalOps: 800, InitialElements: 64,
	}
	run := func(set policy.Set) RunResult {
		return Run(RunConfig{Workload: w, Costs: costs, Seed: 42, Policies: set})
	}
	a := run(policy.Set{Order: policy.LocalityOrder{Model: costs}})
	b := run(policy.Set{Order: search.Linear})
	if a.Makespan != b.Makespan || a.Stats != b.Stats {
		t.Fatalf("uniform-cost locality diverged from linear: makespan %d vs %d", a.Makespan, b.Makespan)
	}
}

// TestControlTraceRecordsPerHandleTrajectories checks the runner's
// controller tracing: every processor gets a trajectory, producers hold
// the steal-half fraction, and at least one consumer's fraction moves off
// it — the per-handle divergence the trace experiment plots.
func TestControlTraceRecordsPerHandleTrajectories(t *testing.T) {
	set, err := policy.Named("per-handle")
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Config{
		Procs:           8,
		Model:           workload.Burst,
		Producers:       3,
		Arrangement:     workload.Balanced,
		BatchSize:       1,
		TotalOps:        2000,
		InitialElements: 64,
	}
	set.Order = search.Tree
	res := Run(RunConfig{
		Workload: w, Costs: numa.ButterflyCosts(),
		Seed: 7, Policies: set, ControlTrace: true,
	})
	if len(res.Controls) != 8 {
		t.Fatalf("got %d controller traces, want 8", len(res.Controls))
	}
	producers := map[int]bool{}
	for _, p := range workload.ProducerPositions(8, 3, workload.Balanced) {
		producers[p] = true
	}
	moved := false
	for id := range res.Controls {
		tr := &res.Controls[id]
		if tr.FracPermil.Len() == 0 || tr.Batch.Len() == 0 {
			t.Fatalf("processor %d has an empty trajectory", id)
		}
		final := tr.FracPermil.Points()[tr.FracPermil.Len()-1].Value
		if producers[id] {
			if final != 500 {
				t.Fatalf("producer %d final fraction %d permil, want 500 (producers observe no removes)", id, final)
			}
		} else if final != 500 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no consumer fraction moved off steal-half: per-handle control is not visible")
	}
	// Without the flag, no traces are collected.
	res = Run(RunConfig{
		Workload: w, Costs: numa.ButterflyCosts(),
		Seed: 7, Policies: set,
	})
	if res.Controls != nil {
		t.Fatal("ControlTrace off but traces collected")
	}
}

// TestEmptiestPlacementInSim checks the simulated pool honors a Director
// placement and charges its probes: a directed run's adds spread across
// segments, and the probe charges show up as a longer makespan than the
// local-placement run.
func TestEmptiestPlacementInSim(t *testing.T) {
	w := workload.Config{
		Procs: 8, Model: workload.ProducerConsumer, Producers: 2,
		Arrangement: workload.Contiguous, TotalOps: 600, InitialElements: 0,
	}
	costs := numa.ButterflyCosts()
	directed := Run(RunConfig{
		Workload: w, Costs: costs, Seed: 5,
		Policies: policy.Set{Place: policy.GiftToEmptiest{}},
	})
	local := Run(RunConfig{
		Workload: w, Costs: costs, Seed: 5,
	})
	if directed.Makespan <= local.Makespan {
		t.Fatalf("directed makespan %d <= local %d: probe charges missing", directed.Makespan, local.Makespan)
	}
	if directed.Stats.Adds == 0 {
		t.Fatal("directed run recorded no adds")
	}
	// Element conservation under the director.
	if directed.Stats.Adds != directed.Stats.Removes+int64(directed.Remaining) {
		t.Fatalf("conservation violated: adds=%d removes=%d remaining=%d",
			directed.Stats.Adds, directed.Stats.Removes, directed.Remaining)
	}
}
