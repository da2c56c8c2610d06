package sim

import (
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/workload"
)

// policyTrial runs one small burst trial under the named steal policy.
func policyTrial(t *testing.T, name string, seed uint64) RunResult {
	t.Helper()
	set, err := policy.Named(name)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Config{
		Procs:           8,
		Model:           workload.Burst,
		Producers:       3,
		Arrangement:     workload.Balanced,
		BatchSize:       8,
		TotalOps:        1500,
		InitialElements: 80,
	}
	set.Order = search.Tree
	return Run(RunConfig{
		Workload: w,
		Costs:    numa.ButterflyCosts(),
		Seed:     seed,
		Policies: set,
	})
}

// TestPolicyDeterminism re-runs the same seeded trial under every steal
// policy and checks the virtual-time results are identical: the policy
// subsystem (including the adaptive controller's parameter trajectory)
// must be a deterministic function of the seed.
func TestPolicyDeterminism(t *testing.T) {
	for _, name := range policy.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a := policyTrial(t, name, 1989)
			b := policyTrial(t, name, 1989)
			if a.Makespan != b.Makespan {
				t.Fatalf("makespan diverged for %s: %d vs %d", name, a.Makespan, b.Makespan)
			}
			if a.Stats != b.Stats {
				t.Fatalf("stats diverged for %s:\n%+v\nvs\n%+v", name, a.Stats, b.Stats)
			}
			if a.Remaining != b.Remaining {
				t.Fatalf("remaining diverged for %s: %d vs %d", name, a.Remaining, b.Remaining)
			}
		})
	}
}

// TestPolicyConservation checks element conservation holds under every
// policy: initial + adds == removes + remaining.
func TestPolicyConservation(t *testing.T) {
	for _, name := range policy.Names() {
		res := policyTrial(t, name, 13)
		st := res.Stats
		if st.Adds+80 != st.Removes+int64(res.Remaining) {
			t.Fatalf("%s: conservation violated: adds=%d removes=%d remaining=%d",
				name, st.Adds, st.Removes, res.Remaining)
		}
	}
}
