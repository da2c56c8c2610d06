package sim

import (
	"reflect"
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/workload"
)

// hierRun executes one clustered sparse-mix trial under the given policy
// set and returns its result.
func hierRun(t *testing.T, set policy.Set, costs numa.CostModel, seed uint64) RunResult {
	t.Helper()
	w := workload.Config{
		Procs:           16,
		Model:           workload.RandomOps,
		AddFraction:     0.3,
		Arrangement:     workload.Contiguous,
		TotalOps:        1500,
		InitialElements: 96,
	}
	return Run(RunConfig{Workload: w, Costs: costs, Seed: seed, Policies: set})
}

// TestSimHierarchicalDeterministic replays the same seed twice and
// requires byte-identical measurements — the escalating searcher (and its
// per-handle tuned threshold) must not break the simulator's determinism
// contract.
func TestSimHierarchicalDeterministic(t *testing.T) {
	topo := numa.Clusters{Size: 4}
	costs := numa.ButterflyCosts().WithTopology(topo).WithExtraDelay(100)
	mk := func() policy.Set {
		p := policy.NewPerHandle()
		return policy.Set{Order: policy.HierarchicalOrder{Topo: topo}, Steal: p, Control: p}
	}
	a := hierRun(t, mk(), costs, 42)
	b := hierRun(t, mk(), costs, 42)
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %d vs %d", a.Makespan, b.Makespan)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("stats differ across identical seeds:\n%+v\n%+v", a.Stats, b.Stats)
	}
}
