package sim

import (
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/workload"
)

func churnRunConfig(drain bool) RunConfig {
	return RunConfig{
		Workload: workload.Config{
			Procs:           8,
			Model:           workload.RandomOps,
			AddFraction:     0.5,
			TotalOps:        1500,
			InitialElements: 120,
		},
		Policies: policy.Set{Order: search.Tree},
		Costs:    numa.ButterflyCosts(),
		Seed:     42,
		Churn:    workload.Churn{KillEvery: 1000, ReviveAfter: 600, Drain: drain, MaxKills: 6},
	}
}

// TestSimChurnConservation checks the chaos layer's conservation
// invariant end to end on the simulated substrate: whatever the
// kill/revive schedule did, every element put is either taken or still
// in the pool at the end, and every budget unit went to a completed or
// an aborted operation. The burst row adds refunds: a batch claims
// BatchSize units and returns what its GetN could not move.
func TestSimChurnConservation(t *testing.T) {
	burst := func(drain bool) RunConfig {
		cfg := churnRunConfig(drain)
		cfg.Workload.Model = workload.Burst
		cfg.Workload.Producers = 4
		cfg.Workload.Arrangement = workload.Balanced
		cfg.Workload.BatchSize = 8
		return cfg
	}
	for _, mode := range []struct {
		name string
		cfg  RunConfig
	}{
		{"drain", churnRunConfig(true)},
		{"steal-only", churnRunConfig(false)},
		{"burst-drain", burst(true)},
		{"burst-steal-only", burst(false)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			res := Run(mode.cfg)
			if len(res.Churn) == 0 {
				t.Fatal("schedule performed no transitions; config too gentle")
			}
			fill := int64(mode.cfg.Workload.InitialElements)
			if got, want := int64(res.Remaining), fill+res.Stats.Adds-res.Stats.Removes; got != want {
				t.Errorf("conservation violated: remaining = %d, fill+adds-removes = %d", got, want)
			}
			if got := res.Stats.Ops() + res.Stats.Aborts; got != int64(mode.cfg.Workload.TotalOps) {
				t.Errorf("ops+aborts = %d, want the budget %d", got, mode.cfg.Workload.TotalOps)
			}
			if res.Stats.Ops() == 0 {
				t.Error("no operations completed under churn")
			}
		})
	}
}

// TestSimChurnEvents checks the shape of the chaos driver's transition
// log: kills and revives strictly alternate (one victim down at a time),
// targets are valid processors, times never run backwards, and the ops
// trace the driver samples is monotone.
func TestSimChurnEvents(t *testing.T) {
	cfg := churnRunConfig(true)
	res := Run(cfg)
	down := -1
	var last int64
	for i, ev := range res.Churn {
		if ev.Proc < 0 || ev.Proc >= cfg.Workload.Procs {
			t.Fatalf("event %d targets invalid proc %d", i, ev.Proc)
		}
		if ev.Time < last {
			t.Fatalf("event %d time %d before previous %d", i, ev.Time, last)
		}
		last = ev.Time
		if ev.Revive {
			if down != ev.Proc {
				t.Fatalf("event %d revives proc %d but %d is down", i, ev.Proc, down)
			}
			down = -1
		} else {
			if down != -1 {
				t.Fatalf("event %d kills proc %d while %d is still down", i, ev.Proc, down)
			}
			if !ev.Drain {
				t.Errorf("event %d lost the schedule's drain flag", i)
			}
			down = ev.Proc
		}
	}
	if res.OpsTrace.Len() == 0 {
		t.Fatal("churn run recorded no ops trace")
	}
	var prev int64
	for _, pt := range res.OpsTrace.Points() {
		if pt.Value < prev {
			t.Fatalf("ops trace decreased: %d after %d", pt.Value, prev)
		}
		prev = pt.Value
	}

	// Determinism: a second run of the same config produces the identical
	// transition log.
	again := Run(cfg)
	if len(again.Churn) != len(res.Churn) {
		t.Fatalf("churn log length varies across runs: %d vs %d", len(again.Churn), len(res.Churn))
	}
	for i := range res.Churn {
		if again.Churn[i] != res.Churn[i] {
			t.Fatalf("churn event %d varies across runs: %+v vs %+v", i, again.Churn[i], res.Churn[i])
		}
	}
}

// TestSimChurnZeroChurnUnaffected pins the no-churn fast path: a config
// with churn disabled produces the identical result whether or not the
// Churn field is the zero value it always was — i.e. the chaos layer is
// inert when off.
func TestSimChurnZeroChurnUnaffected(t *testing.T) {
	cfg := churnRunConfig(true)
	cfg.Churn = workload.Churn{}
	res := Run(cfg)
	if len(res.Churn) != 0 || res.OpsTrace.Len() != 0 {
		t.Error("disabled churn still drove transitions or sampling")
	}
	if res.Remaining < 0 || res.Stats.Ops() == 0 {
		t.Error("zero-churn run did not complete normally")
	}
}

// TestSimChurnRejects checks the documented config panics.
func TestSimChurnRejects(t *testing.T) {
	mustPanic := func(name string, cfg RunConfig) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("Run accepted an invalid churn config")
				}
			}()
			Run(cfg)
		})
	}

	open := churnRunConfig(true)
	open.Workload.Model = workload.OpenLoop
	open.Workload.Arrivals = workload.Arrivals{Lambda: 0.01}
	open.Workload.AddFraction = 0.5
	mustPanic("openloop", open)

	solo := churnRunConfig(true)
	solo.Workload.Procs = 1
	mustPanic("single-proc", solo)

	bad := churnRunConfig(true)
	bad.Churn.ReviveAfter = -1
	mustPanic("invalid-schedule", bad)
}
