package harness

import (
	"strings"
	"testing"

	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/workload"
)

// TestPolicySweepAdaptiveCompetitive is the subsystem's acceptance bar:
// on the batch-16 burst sweep the adaptive policy's per-element time must
// be within 10% of the best static policy — the controller has to find a
// good operating point online, without being configured for the workload.
func TestPolicySweepAdaptiveCompetitive(t *testing.T) {
	cfg := Config{Trials: 3, Seed: 1989}
	rows := PolicySweep(cfg, search.Tree, 5, []int{16})
	perElem := map[string]float64{}
	for _, r := range rows {
		if r.Batch == 16 {
			perElem[r.Policy] = r.Point.PerElementTime
		}
	}
	best := 0.0
	for _, name := range []string{"half", "one", "proportional"} {
		v, ok := perElem[name]
		if !ok || v <= 0 {
			t.Fatalf("static policy %q missing from sweep: %v", name, perElem)
		}
		if best == 0 || v < best {
			best = v
		}
	}
	adaptive, ok := perElem["adaptive"]
	if !ok || adaptive <= 0 {
		t.Fatalf("adaptive missing from sweep: %v", perElem)
	}
	if adaptive > best*1.10 {
		t.Fatalf("adaptive per-element time %.2f exceeds best static %.2f by more than 10%%",
			adaptive, best)
	}
}

// TestPolicySweepSeparatesPolicies checks the sweep actually measures
// different policies: steal-one must haul exactly one element per steal
// while steal-half hauls many on the batch-16 burst workload.
func TestPolicySweepSeparatesPolicies(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 7}
	rows := PolicySweep(cfg, search.Tree, 5, []int{16})
	byPolicy := map[string]Point{}
	for _, r := range rows {
		byPolicy[r.Policy] = r.Point
	}
	if got := byPolicy["one"].ElementsStolen; got != 1 {
		t.Fatalf("steal-one stolen/steal = %.2f, want 1", got)
	}
	if byPolicy["half"].ElementsStolen <= byPolicy["proportional"].ElementsStolen {
		t.Fatalf("half stolen/steal %.2f <= proportional %.2f",
			byPolicy["half"].ElementsStolen, byPolicy["proportional"].ElementsStolen)
	}
}

// TestPolicyFluctuate checks the fluctuating-roles comparison produces a
// row per (policy, cadence) with measured times.
func TestPolicyFluctuate(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 3}
	rows := PolicyFluctuate(cfg, search.Linear, 4, 8, []int{0, 50})
	if len(rows) != len(PolicyNames())*2 {
		t.Fatalf("got %d rows, want %d", len(rows), len(PolicyNames())*2)
	}
	byKey := map[string]map[int]Point{}
	for _, r := range rows {
		if r.Point.PerElementTime <= 0 {
			t.Fatalf("row %s/%d has no per-element time", r.Policy, r.FlipEvery)
		}
		if byKey[r.Policy] == nil {
			byKey[r.Policy] = map[int]Point{}
		}
		byKey[r.Policy][r.FlipEvery] = r.Point
	}
	// The cadence must actually rotate roles: at ~300 elements per process
	// a flip-50 run cannot be byte-identical to fixed roles for every
	// policy (that would mean the rotation clock never ticked).
	same := 0
	for _, pts := range byKey {
		if pts[0] == pts[50] {
			same++
		}
	}
	if same == len(byKey) {
		t.Fatal("flip-50 rows identical to fixed-roles rows for every policy: rotation never engaged")
	}
}

// TestRenderPolicy checks the chart, tables, and CSVs render with every
// policy present.
func TestRenderPolicy(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 11}
	rows := PolicySweep(cfg, search.Tree, 5, []int{1, 8})
	out, csv := policyReport(search.Tree, rows)
	for _, want := range []string{"half", "one", "proportional", "adaptive", "per-element time", "µs/element"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered sweep missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(csv, "per_element_us") ||
		len(strings.Split(strings.TrimSpace(csv), "\n")) != len(rows)+1 {
		t.Fatalf("unexpected CSV:\n%s", csv)
	}
	fluct := PolicyFluctuate(cfg, search.Linear, 4, 8, []int{0, 10})
	fout, fcsv := fluctReport(8, fluct)
	if !strings.Contains(fout, "rotate/10 elems") || !strings.Contains(fout, "Fluctuating") {
		t.Fatalf("fluct render missing content:\n%s", fout)
	}
	if !strings.Contains(fcsv, "flip_every") ||
		len(strings.Split(strings.TrimSpace(fcsv), "\n")) != len(fluct)+1 {
		t.Fatalf("unexpected fluct CSV:\n%s", fcsv)
	}
}

// TestRealRunBurstAdaptive runs the adaptive policy set on the real-pool
// substrate's burst loop (which consults the controller's batch
// recommendation, mirroring the simulator) and checks conservation.
// Whether a producer claims an op before the consumers spend the budget
// is up to the scheduler, so batch adds are asserted on the simulator
// (sim.TestRunBurstConservation/adaptive-4) instead.
func TestRealRunBurstAdaptive(t *testing.T) {
	set, err := policy.Named("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Config{
		Procs:           4,
		Model:           workload.Burst,
		Producers:       2,
		Arrangement:     workload.Balanced,
		BatchSize:       8,
		TotalOps:        400,
		InitialElements: 32,
	}
	res, err := RealRun(RealRunConfig{Workload: wl, Seed: 9, Policies: set})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	total := int64(wl.InitialElements) + st.Adds
	if st.Removes+int64(res.Remaining) != total {
		t.Fatalf("conservation violated: removes=%d remaining=%d added=%d",
			st.Removes, res.Remaining, total)
	}
}

// TestPolicySweepDeterministic re-runs the sweep with the same seed and
// requires identical points (the adaptive controller is rebuilt per
// trial, so no state leaks across runs).
func TestPolicySweepDeterministic(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 42}
	a := PolicySweep(cfg, search.Linear, 5, []int{8})
	b := PolicySweep(cfg, search.Linear, 5, []int{8})
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at row %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
