package harness

import (
	"strings"
	"testing"

	"pools/internal/search"
	"pools/internal/workload"
)

func TestBurstSweepAmortizes(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 1989}
	rows := BurstSweep(cfg, search.Tree, 5, []int{1, 8})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	one, eight := rows[0].Point, rows[1].Point
	if one.PerElementTime <= 0 || eight.PerElementTime <= 0 {
		t.Fatalf("per-element times not measured: %v / %v", one.PerElementTime, eight.PerElementTime)
	}
	// The acceptance bar: batch 8 amortizes the segment accesses, so the
	// per-element cost must fall well below batch 1's.
	if eight.PerElementTime >= one.PerElementTime {
		t.Fatalf("batch 8 per-element time %.1f >= batch 1's %.1f: no amortization",
			eight.PerElementTime, one.PerElementTime)
	}
	if eight.MakespanMean >= one.MakespanMean {
		t.Fatalf("batch 8 makespan %.0f >= batch 1's %.0f", eight.MakespanMean, one.MakespanMean)
	}
}

func TestBurstDeterministic(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 42}
	a := BurstSweep(cfg, search.Linear, 5, []int{4})
	b := BurstSweep(cfg, search.Linear, 5, []int{4})
	if a[0].Point != b[0].Point {
		t.Fatalf("same seed diverged: %+v vs %+v", a[0].Point, b[0].Point)
	}
}

func TestRenderBurst(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 7}
	rows := BurstSweep(cfg, search.Tree, 5, []int{1, 8})
	out, csv := burstReport(search.Tree, rows)
	for _, want := range []string{"batch size", "µs/element", "per-element"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(csv, "per_element_us") || len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("unexpected CSV:\n%s", csv)
	}
}

// TestRealRunBurst checks conservation on the real pool's burst loop.
// Batch adds are asserted on the same workload on the simulator
// (sim.TestRunBurstConservation/default-4): here, whether a producer
// claims an op before the consumers spend the budget is up to the
// scheduler.
func TestRealRunBurst(t *testing.T) {
	wl := workload.Config{
		Procs:           4,
		Model:           workload.Burst,
		Producers:       2,
		Arrangement:     workload.Balanced,
		BatchSize:       8,
		TotalOps:        400,
		InitialElements: 32,
	}
	res, err := RealRun(RealRunConfig{Workload: wl, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	// Conservation: everything added (by seed or batch) is either removed
	// or still pooled.
	total := int64(wl.InitialElements) + st.Adds
	if st.Removes+int64(res.Remaining) != total {
		t.Fatalf("conservation violated: removes=%d remaining=%d added=%d",
			st.Removes, res.Remaining, total)
	}
}
