package sim

import (
	"reflect"
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
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

// TestSimHierarchicalReducesCrossProbes runs the clustered workload under
// the flat linear order and the hierarchical order and compares the
// cross-cluster probe accounting: the hierarchical searcher must cross on
// a smaller fraction of its probes.
func TestSimHierarchicalReducesCrossProbes(t *testing.T) {
	topo := numa.Clusters{Size: 4}
	costs := numa.ButterflyCosts().WithTopology(topo).WithExtraDelay(1000)
	flat := hierRun(t, policy.Set{Order: search.Linear}, costs, 11)
	hier := hierRun(t, policy.Set{Order: policy.HierarchicalOrder{Topo: topo}}, costs, 11)
	if flat.Stats.RemoteProbes == 0 || hier.Stats.RemoteProbes == 0 {
		t.Fatalf("no remote probes recorded: flat %+v hier %+v", flat.Stats.RemoteProbes, hier.Stats.RemoteProbes)
	}
	ff := flat.Stats.CrossProbeFraction()
	hf := hier.Stats.CrossProbeFraction()
	if hf >= ff {
		t.Fatalf("hierarchical cross fraction %.3f >= flat %.3f", hf, ff)
	}
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

// TestSimNearestEmptiestPlacement checks the topology-aware director is
// honored by the simulated pool and its probes are classified.
func TestSimNearestEmptiestPlacement(t *testing.T) {
	topo := numa.Clusters{Size: 4}
	costs := numa.ButterflyCosts().WithTopology(topo).WithExtraDelay(1000)
	res := hierRun(t, policy.Set{
		Order: policy.HierarchicalOrder{Topo: topo},
		Place: policy.GiftToNearestEmptiest{Model: costs},
	}, costs, 11)
	if res.Stats.RemoteProbes == 0 {
		t.Fatal("director placed without probing")
	}
	if res.Stats.CrossProbes > res.Stats.RemoteProbes {
		t.Fatalf("cross probes %d exceed remote probes %d", res.Stats.CrossProbes, res.Stats.RemoteProbes)
	}
	if res.Stats.Ops() == 0 {
		t.Fatal("run completed no operations")
	}
}
