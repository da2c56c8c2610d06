package harness

import (
	"testing"

	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/workload"
)

func realWL(model workload.Model) workload.Config {
	w := workload.Paper(model)
	w.TotalOps = 2000
	w.InitialElements = 128
	w.Procs = 8
	return w
}

func TestRealRunConservation(t *testing.T) {
	for _, kind := range search.Kinds() {
		wl := realWL(workload.RandomOps)
		wl.AddFraction = 0.5
		res, err := RealRun(RealRunConfig{Workload: wl, Search: kind, Seed: 11})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		st := res.Stats
		if got := st.Ops() + st.Aborts; got != int64(wl.TotalOps) {
			t.Fatalf("%v: ops+aborts = %d, want %d", kind, got, wl.TotalOps)
		}
		want := int64(wl.InitialElements) + st.Adds - st.Removes
		if int64(res.Remaining) != want {
			t.Fatalf("%v: remaining = %d, want %d", kind, res.Remaining, want)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%v: elapsed = %v", kind, res.Elapsed)
		}
	}
}

func TestRealRunProducerConsumer(t *testing.T) {
	wl := realWL(workload.ProducerConsumer)
	wl.Producers = 3
	wl.Arrangement = workload.Balanced
	res, err := RealRun(RealRunConfig{Workload: wl, Search: search.Linear, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steals == 0 {
		t.Fatal("producer/consumer run had no steals")
	}
}

func TestRealRunDirectedAdds(t *testing.T) {
	wl := realWL(workload.ProducerConsumer)
	wl.Producers = 2
	res, err := RealRun(RealRunConfig{Workload: wl, Search: search.Linear, Seed: 5, Policies: policy.Set{Place: policy.GiftAll{}}})
	if err != nil {
		t.Fatal(err)
	}
	// Whether a Put catches a consumer mid-search depends on the Go
	// scheduler (on one core, producers and searchers interleave only at
	// preemption points), so engagement is logged, not required; the
	// deterministic engagement test lives in internal/core.
	if res.Stats.DirectedGives == 0 {
		t.Log("directed adds never engaged on this scheduler; core tests cover engagement")
	}
	if res.Stats.DirectedGives < res.Stats.DirectedReceives {
		t.Fatalf("gives %d < receives %d", res.Stats.DirectedGives, res.Stats.DirectedReceives)
	}
	if res.Stats.Adds == 0 {
		t.Fatal("producers were starved of the operation budget")
	}
}

func TestRealRunStealOne(t *testing.T) {
	wl := realWL(workload.ProducerConsumer)
	wl.Producers = 2
	res, err := RealRun(RealRunConfig{Workload: wl, Search: search.Random, Seed: 6, Policies: policy.Set{Steal: policy.One{}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steals > 0 && res.Stats.ElementsStolen.Max() > 1 {
		t.Fatalf("steal-one moved %v elements in one steal", res.Stats.ElementsStolen.Max())
	}
}

func TestRealRunValidates(t *testing.T) {
	if _, err := RealRun(RealRunConfig{Workload: workload.Config{}}); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestRealCompareAllAlgorithms(t *testing.T) {
	wl := realWL(workload.RandomOps)
	wl.AddFraction = 0.4
	pts, err := RealCompare(wl, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for kind, pt := range pts {
		if pt.MixAchieved < 0.3 || pt.MixAchieved > 0.5 {
			t.Errorf("%v: mix achieved %.2f, want ~0.4", kind, pt.MixAchieved)
		}
	}
}
