package harness

import (
	"strings"
	"testing"

	"pools/internal/search"
	"pools/internal/workload"
)

func TestChaosSweep(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 7, Procs: 8, Ops: 2000, Fill: 160}
	scheds := []ChaosSchedule{
		{Churn: workload.Churn{KillEvery: 2000, ReviveAfter: 1000, Drain: true}, Label: "drain/1000µs"},
		{Churn: workload.Churn{KillEvery: 2000, ReviveAfter: 1000}, Label: "steal-only/1000µs"},
	}
	rows := ChaosSweep(cfg, search.Tree, scheds)
	if len(rows) != len(scheds) {
		t.Fatalf("rows = %d, want %d", len(rows), len(scheds))
	}
	for _, r := range rows {
		if r.BaselineRate <= 0 {
			t.Errorf("%s: baseline rate = %v, want > 0", r.Schedule.Label, r.BaselineRate)
		}
		if r.Kills == 0 {
			t.Errorf("%s: no kills performed", r.Schedule.Label)
		}
		if r.DipFraction < 0 || r.DipFraction > 1 {
			t.Errorf("%s: dip fraction = %v, want in [0,1]", r.Schedule.Label, r.DipFraction)
		}
		if r.Recovered > r.Kills {
			t.Errorf("%s: recovered %d of %d kills", r.Schedule.Label, r.Recovered, r.Kills)
		}
	}
	out := RenderChaos(search.Tree, rows)
	if !strings.Contains(out, "recovered ") {
		t.Errorf("render missing the recovery footer:\n%s", out)
	}
	csv := ChaosCSV(rows)
	if lines := strings.Count(strings.TrimSpace(csv), "\n"); lines != len(rows) {
		t.Errorf("CSV body lines = %d, want %d:\n%s", lines, len(rows), csv)
	}
}

// The sweep is deterministic for a seed: same config, same rows.
func TestChaosSweepDeterministic(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 11, Procs: 8, Ops: 1500, Fill: 160}
	scheds := []ChaosSchedule{
		{Churn: workload.Churn{KillEvery: 1500, ReviveAfter: 800, Drain: true}, Label: "drain"},
	}
	a := ChaosSweep(cfg, search.Tree, scheds)
	b := ChaosSweep(cfg, search.Tree, scheds)
	if a[0] != b[0] {
		t.Errorf("sweep not deterministic:\n%+v\n%+v", a[0], b[0])
	}
}

// RealRun under an operation-clock churn schedule: every scheduled kill
// happens, every kill is revived, and no element is lost or invented
// across the transitions (conservation: fill + adds - removes =
// remaining).
func TestRealRunChurn(t *testing.T) {
	const totalOps, procs = 6000, 4
	churn := workload.Churn{KillEvery: 300, ReviveAfter: 200, Drain: true, MaxKills: 8}
	res, err := RealRun(RealRunConfig{
		Workload: workload.Config{
			Procs:           procs,
			Model:           workload.RandomOps,
			AddFraction:     0.5,
			TotalOps:        totalOps,
			InitialElements: 64,
		},
		Search: search.Tree,
		Seed:   42,
		Churn:  churn,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the seeded schedule (gap, victim, gap, victim, ...) in budget
	// positions. An event fires at the first claim that reaches its
	// position, which concurrent claims can overshoot by at most procs-1,
	// so allow that per event.
	gen := churn.Gen(42)
	end := int64(0)
	for gap := gen.NextGap(); gap >= 0; gap = gen.NextGap() {
		gen.PickVictim(procs)
		end += gap + churn.ReviveAfter + 2*(procs-1)
	}
	if end >= totalOps {
		t.Fatalf("schedule ends at op %d, past the %d-op budget: pick another seed", end, totalOps)
	}
	if res.Kills != churn.MaxKills {
		t.Errorf("kills = %d, want all %d scheduled inside the budget", res.Kills, churn.MaxKills)
	}
	if res.Kills != res.Revives {
		t.Errorf("kills = %d, revives = %d, want equal", res.Kills, res.Revives)
	}
	want := 64 + res.Stats.Adds - res.Stats.Removes
	if int64(res.Remaining) != want {
		t.Errorf("conservation violated: remaining = %d, want fill+adds-removes = %d", res.Remaining, want)
	}
}

// Steal-only kills run the same conservation check: the dead segment's
// reserve must drain through survivors' steals, never vanish.
func TestRealRunChurnStealOnly(t *testing.T) {
	res, err := RealRun(RealRunConfig{
		Workload: workload.Config{
			Procs:           4,
			Model:           workload.RandomOps,
			AddFraction:     0.5,
			TotalOps:        6000,
			InitialElements: 64,
		},
		Search: search.Tree,
		Seed:   43,
		Churn:  workload.Churn{KillEvery: 300, ReviveAfter: 200, MaxKills: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 64 + res.Stats.Adds - res.Stats.Removes
	if int64(res.Remaining) != want {
		t.Errorf("conservation violated: remaining = %d, want fill+adds-removes = %d", res.Remaining, want)
	}
}

func TestRealRunChurnValidation(t *testing.T) {
	churn := workload.Churn{KillEvery: 100, ReviveAfter: 50}
	if _, err := RealRun(RealRunConfig{
		Workload: workload.Config{Procs: 4, Model: workload.OpenLoop, AddFraction: 0.5, TotalOps: 100,
			Arrivals: workload.Arrivals{Lambda: 0.01}},
		Churn: churn,
	}); err == nil {
		t.Error("OpenLoop + churn should be rejected")
	}
	if _, err := RealRun(RealRunConfig{
		Workload: workload.Config{Procs: 1, Model: workload.RandomOps, AddFraction: 0.5, TotalOps: 100},
		Churn:    churn,
	}); err == nil {
		t.Error("Procs < 2 + churn should be rejected")
	}
	if _, err := RealRun(RealRunConfig{
		Workload: workload.Config{Procs: 2, Model: workload.RandomOps, AddFraction: 0.5, TotalOps: 100},
		Churn:    workload.Churn{KillEvery: 100, ReviveAfter: -1},
	}); err == nil {
		t.Error("invalid churn schedule should be rejected")
	}
}
