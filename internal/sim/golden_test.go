package sim

// Golden end-to-end runs: one regenerable dataset of seeded simulator
// results (completed ops, steals, probe accounting, makespan) pinned
// exactly, replacing scattered per-test fingerprints — the companion to
// internal/engine's equivalence tests, but covering the full workload ×
// topology × churn matrix in one reviewable file. After an intentional
// protocol change, regenerate with
//
//	go test ./internal/sim -run TestGoldenRuns -update
//
// and review the JSON diff like any other golden update. An unintended
// diff is a determinism or equivalence regression: every field is an
// exact integer, so even a one-probe drift fails.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/workload"
)

var updateRuns = flag.Bool("update", false, "rewrite testdata/golden_runs.json")

// goldenRecord is one config's pinned outcome. Integer fields only, so
// equality is exact (cross-probe fractions are pinned via the two probe
// counters they derive from).
type goldenRecord struct {
	Ops          int64 `json:"ops"`
	Adds         int64 `json:"adds"`
	Removes      int64 `json:"removes"`
	Steals       int64 `json:"steals"`
	Aborts       int64 `json:"aborts"`
	RemoteProbes int64 `json:"remote_probes"`
	CrossProbes  int64 `json:"cross_probes"`
	Makespan     int64 `json:"makespan_us"`
	Remaining    int   `json:"remaining"`
	Kills        int   `json:"kills"`
	Revives      int   `json:"revives"`
}

// goldenConfigs is the pinned matrix: the paper's two models under both
// searches, batching, a clustered topology (exercising the cross-probe
// counters), and both churn kill modes (exercising the chaos driver and
// the membership epoch end to end).
func goldenConfigs() map[string]RunConfig {
	base := func(model workload.Model) workload.Config {
		return workload.Config{
			Procs:           16,
			Model:           model,
			Arrangement:     workload.Contiguous,
			TotalOps:        2000,
			InitialElements: 320,
		}
	}
	pc := func(arr workload.Arrangement) workload.Config {
		w := base(workload.ProducerConsumer)
		w.Producers = 5
		w.Arrangement = arr
		return w
	}
	random := func(mix float64) workload.Config {
		w := base(workload.RandomOps)
		w.AddFraction = mix
		return w
	}
	burst := base(workload.Burst)
	burst.Producers = 5
	burst.Arrangement = workload.Balanced
	burst.BatchSize = 8

	clustered := numa.ButterflyCosts().WithTopology(numa.Clusters{Size: 4}).WithExtraDelay(500)

	churn := func(drain bool) RunConfig {
		return RunConfig{
			Workload: random(0.5), Policies: policy.Set{Order: search.Linear}, Costs: numa.ButterflyCosts(), Seed: 1989,
			Churn: workload.Churn{KillEvery: 2000, ReviveAfter: 1500, Drain: drain, MaxKills: 4},
		}
	}

	return map[string]RunConfig{
		"linear/pc5-contiguous": {Workload: pc(workload.Contiguous), Policies: policy.Set{Order: search.Linear}, Costs: numa.ButterflyCosts(), Seed: 1989},
		"tree/pc5-balanced":     {Workload: pc(workload.Balanced), Policies: policy.Set{Order: search.Tree}, Costs: numa.ButterflyCosts(), Seed: 1989},
		"linear/random-mix30":   {Workload: random(0.3), Policies: policy.Set{Order: search.Linear}, Costs: numa.ButterflyCosts(), Seed: 1989},
		"tree/random-mix70":     {Workload: random(0.7), Policies: policy.Set{Order: search.Tree}, Costs: numa.ButterflyCosts(), Seed: 1989},
		"tree/burst-batch8":     {Workload: burst, Policies: policy.Set{Order: search.Tree}, Costs: numa.ButterflyCosts(), Seed: 1989},
		"linear/clustered-mix40": {
			Workload: random(0.4), Policies: policy.Set{Order: search.Linear}, Costs: clustered, Seed: 1989,
		},
		"linear/churn-drain":     churn(true),
		"linear/churn-stealonly": churn(false),
	}
}

// record runs one config and extracts its pinned outcome.
func record(cfg RunConfig) goldenRecord {
	res := Run(cfg)
	kills, revives := 0, 0
	for _, ev := range res.Churn {
		if ev.Revive {
			revives++
		} else {
			kills++
		}
	}
	return goldenRecord{
		Ops:          res.Stats.Ops(),
		Adds:         res.Stats.Adds,
		Removes:      res.Stats.Removes,
		Steals:       res.Stats.Steals,
		Aborts:       res.Stats.Aborts,
		RemoteProbes: res.Stats.RemoteProbes,
		CrossProbes:  res.Stats.CrossProbes,
		Makespan:     res.Makespan,
		Remaining:    res.Remaining,
		Kills:        kills,
		Revives:      revives,
	}
}

func TestGoldenRuns(t *testing.T) {
	configs := goldenConfigs()
	got := make(map[string]goldenRecord, len(configs))
	for name, cfg := range configs {
		got[name] = record(cfg)
	}

	golden := filepath.Join("testdata", "golden_runs.json")
	if *updateRuns {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	var names []string
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from golden dataset (regenerate with -update)", name)
			continue
		}
		if got[name] != w {
			t.Errorf("%s: diverged from golden dataset\n got %+v\nwant %+v\n"+
				"(rerun with -update only if the protocol change is intentional)", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := configs[name]; !ok {
			t.Errorf("golden dataset has stale config %q (regenerate with -update)", name)
		}
	}

	// Structural sanity independent of the pinned numbers: the clustered
	// config must exercise the cross-probe counters, and the churn
	// configs the chaos driver.
	if got["linear/clustered-mix40"].CrossProbes == 0 {
		t.Error("clustered config recorded no cross probes; topology wiring broken")
	}
	for _, name := range []string{"linear/churn-drain", "linear/churn-stealonly"} {
		if got[name].Kills == 0 {
			t.Errorf("%s: no kills; chaos schedule too gentle to pin", name)
		}
		if got[name].Kills < got[name].Revives {
			t.Errorf("%s: %d kills < %d revives", name, got[name].Kills, got[name].Revives)
		}
	}
}
