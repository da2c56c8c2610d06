package harness

import (
	"fmt"
	"strings"
	"testing"

	"pools/internal/search"
	"pools/internal/workload"
)

// quickCfg shrinks the protocol for fast unit tests (full-protocol runs
// happen in the benchmarks and cmd/poolbench).
func quickCfg() Config {
	return Config{Trials: 2, Seed: 7, Ops: 1500, Fill: 96}
}

func TestFig2Shape(t *testing.T) {
	r := Fig2(quickCfg())
	if len(r.Random) != 11 || len(r.PC) != 17 {
		t.Fatalf("series lengths: random=%d pc=%d", len(r.Random), len(r.PC))
	}
	// Sparse mixes must be slower than sufficient mixes (random model).
	sparse := r.Random[2].AvgOpTime // 20% adds
	rich := r.Random[8].AvgOpTime   // 80% adds
	if sparse <= rich {
		t.Errorf("sparse (%.0f) not slower than sufficient (%.0f)", sparse, rich)
	}
	// Performance levels off at and beyond 50% adds: the 60..100% points
	// should all be within a modest band of each other.
	for i := 7; i <= 10; i++ {
		lo, hi := r.Random[6].AvgOpTime, r.Random[i].AvgOpTime
		if hi > 3*lo+1 && lo > 0 {
			t.Errorf("sufficient region not level: %.0f vs %.0f", lo, hi)
		}
	}
	// Producer/consumer steals at every producer count (except the
	// degenerate all-producer point).
	for _, p := range r.PC[1:16] {
		if p.StealsPerOp == 0 {
			t.Errorf("PC point at mix %.0f%% had no steals", p.X)
		}
	}
	out, _ := r.report()
	for _, want := range []string{"Figure 2", "random", "producer/consumer", "%adds"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig2PCWorseAtSparse(t *testing.T) {
	// "The performance of this model is similar to the random operations
	// model above 50% adds, but is generally not as good at sparse job
	// mixes." Compare PC at ~5 producers vs random near the same measured
	// mix.
	r := Fig2(quickCfg())
	// PC with 5/16 producers achieves a mix just under 50%.
	pc5 := r.PC[5]
	// Closest random point: interpolate between the bracketing mixes.
	var randomAt float64
	for i := 0; i+1 < len(r.Random); i++ {
		a, b := r.Random[i], r.Random[i+1]
		if pc5.X >= a.X && pc5.X <= b.X {
			f := (pc5.X - a.X) / (b.X - a.X)
			randomAt = a.AvgOpTime + f*(b.AvgOpTime-a.AvgOpTime)
			break
		}
	}
	if randomAt == 0 {
		t.Skip("PC mix outside random sweep")
	}
	if pc5.AvgOpTime < randomAt/3 {
		t.Errorf("PC (%.0f) unexpectedly much faster than random (%.0f) at sparse mix", pc5.AvgOpTime, randomAt)
	}
}

func TestFigTraceBunchingAndBalance(t *testing.T) {
	cfg := quickCfg()
	unbal := FigTrace(cfg, "Figure 3", search.Linear, workload.Contiguous, 5)
	bal := FigTrace(cfg, "Figure 4", search.Linear, workload.Balanced, 5)

	if len(unbal.Sampled) != 16 {
		t.Fatalf("sampled %d segments", len(unbal.Sampled))
	}
	// Balanced producers should have at least as many producers stolen
	// from as the contiguous arrangement (paper: contiguous leaves
	// producer 4 untouched; balanced drains all five).
	if bal.ProducersDrained() < unbal.ProducersDrained() {
		t.Errorf("balanced drained %d producers, contiguous %d",
			bal.ProducersDrained(), unbal.ProducersDrained())
	}
	out := unbal.render()
	for _, want := range []string{"Figure 3", "linear", "contiguous", "seg  0 P", "queueing delay"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig7BalancedStealsMore(t *testing.T) {
	// This comparison needs the full 5000-op protocol: short runs are
	// dominated by the initial drain transient.
	r := Fig7(Config{Trials: 2, Seed: 7})
	if len(r.Unbalanced) != 17 || len(r.Balanced) != 17 {
		t.Fatalf("lengths %d/%d", len(r.Unbalanced), len(r.Balanced))
	}
	// Errata orientation: the balanced arrangement steals more elements
	// per steal. The effect is robust from moderate producer counts up
	// (see EXPERIMENTS.md for the sparse-end deviation); compare the sums
	// over 6..14 producers to damp seed noise.
	var balSum, unbalSum float64
	for k := 6; k <= 14; k++ {
		balSum += r.Balanced[k].ElementsStolen
		unbalSum += r.Unbalanced[k].ElementsStolen
	}
	if balSum <= unbalSum {
		t.Errorf("balanced stole %.1f total, unbalanced %.1f — errata shape violated", balSum, unbalSum)
	}
	if out, _ := r.report(); !strings.Contains(out, "Figure 7") {
		t.Error("render missing title")
	}
}

func TestAlgoCompareTreeNeverFasterButExaminesFewer(t *testing.T) {
	rows := AlgoCompare(quickCfg())
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKS := map[string]Point{}
	for _, r := range rows {
		byKS[r.Kind.String()+"/"+r.Scenario] = r.Point
	}
	// In the sparse random scenario, the tree should examine fewer
	// segments per steal than linear or random...
	sc := "random 30% adds (sparse)"
	tree, lin, ran := byKS["tree/"+sc], byKS["linear/"+sc], byKS["random/"+sc]
	if tree.SegmentsExamined >= lin.SegmentsExamined || tree.SegmentsExamined >= ran.SegmentsExamined {
		t.Errorf("tree examined %.2f segs/steal, linear %.2f, random %.2f — paper expects fewest for tree",
			tree.SegmentsExamined, lin.SegmentsExamined, ran.SegmentsExamined)
	}
	// ... and steals more elements per steal than linear ("it also tends
	// to steal more elements").
	if tree.ElementsStolen <= lin.ElementsStolen*0.9 {
		t.Errorf("tree stole %.2f per steal, linear %.2f — paper expects more for tree",
			tree.ElementsStolen, lin.ElementsStolen)
	}
	// In the balanced producer/consumer pattern the tree has "similar,
	// though slightly slower, times" — it must not decisively beat the
	// best simple algorithm there.
	pcScenario := "balanced prod/cons, 5 producers"
	treePC := byKS["tree/"+pcScenario]
	bestPC := byKS["linear/"+pcScenario].AvgOpTime
	if r := byKS["random/"+pcScenario].AvgOpTime; r < bestPC {
		bestPC = r
	}
	if treePC.AvgOpTime < bestPC*0.8 {
		t.Errorf("tree P/C op time %.0f decisively beats simple algorithms (%.0f) — unexpected",
			treePC.AvgOpTime, bestPC)
	}
	out := table(algoCols, rows)
	if !strings.Contains(out, "tree") || !strings.Contains(out, "segs/steal") {
		t.Error("render incomplete")
	}
}

func TestDelaySweepConvergence(t *testing.T) {
	// Full protocol, single trial: the convergence claim is about steady
	// state, which the shortened test config does not reach.
	rows := DelaySweep(Config{Trials: 1, Seed: 7})
	if len(rows) != 2*len(DelaySweepDelays) {
		t.Fatalf("rows = %d", len(rows))
	}
	// With large delays the three algorithms converge: at the largest
	// delay the tree/best ratio must be closer to 1 than at zero delay,
	// or already within 25%.
	ratio := func(r DelayRow) float64 {
		best := r.Times[search.Linear]
		if r.Times[search.Random] < best {
			best = r.Times[search.Random]
		}
		if best == 0 {
			return 0
		}
		return r.Times[search.Tree] / best
	}
	// Convergence is asserted on the balanced producer/consumer scenario
	// (odd rows), where the paper's claim reproduces; the sparse random
	// scenario's deviation is documented in EXPERIMENTS.md.
	firstPC, lastPC := rows[1], rows[len(rows)-1]
	r0, rN := ratio(firstPC), ratio(lastPC)
	converged := abs(rN-1) < 0.3 || abs(rN-1) < abs(r0-1)+0.05
	if !converged {
		t.Errorf("no convergence: P/C ratio %.2f at delay 0, %.2f at max delay", r0, rN)
	}
	// Times must grow with delay.
	firstRandom, lastRandom := rows[0], rows[len(rows)-2]
	if lastRandom.Times[search.Linear] <= firstRandom.Times[search.Linear] {
		t.Error("delay did not increase linear op times")
	}
	if !strings.Contains(table(delayCols, rows), "tree/best") {
		t.Error("render incomplete")
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestStealPolicyAblation(t *testing.T) {
	// Full-protocol runs: the steady-state steal frequency difference is
	// what the paper's rationale predicts.
	rows := StealPolicyAblation(Config{Trials: 2, Seed: 7})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Steal-one must steal fewer elements per steal and steal more often
	// (the paper's rationale for steal-half).
	for _, kind := range search.Kinds() {
		var half, one Point
		for _, r := range rows {
			if r.Kind != kind {
				continue
			}
			if r.StealOne {
				one = r.Point
			} else {
				half = r.Point
			}
		}
		if one.ElementsStolen >= half.ElementsStolen {
			t.Errorf("%v: steal-one stole %.2f >= steal-half %.2f", kind, one.ElementsStolen, half.ElementsStolen)
		}
		if one.StealsPerOp <= half.StealsPerOp {
			t.Errorf("%v: steal-one frequency %.3f <= steal-half %.3f", kind, one.StealsPerOp, half.StealsPerOp)
		}
	}
	if !strings.Contains(table(stealCols, rows), "steal-one") {
		t.Error("render incomplete")
	}
}

func TestAppSpeedupShape(t *testing.T) {
	// Depth 2 keeps the test fast (4032 leaves); the speedup shape is
	// cost-model-driven, not depth-driven.
	rows := App(Config{Seed: 3}, DefaultAppCosts(), 2, []int{1, 4, 16}, AppImpls())
	byIP := map[string]AppRow{}
	for _, r := range rows {
		if !r.Correct {
			t.Fatalf("%v/%d: wrong result (value %d, positions %d)", r.Impl, r.Procs, r.RootValue, r.Positions)
		}
		byIP[fmt.Sprintf("%s/%d", r.Impl, r.Procs)] = r
	}
	// Pools speed up near-linearly at 16 procs; the stack lags.
	for _, impl := range []AppImpl{ImplPoolLinear, ImplPoolRandom, ImplPoolTree} {
		s := byIP[impl.String()+"/16"].Speedup
		if s < 10 {
			t.Errorf("%v speedup at 16 procs = %.1f, want near-linear (>10)", impl, s)
		}
	}
	stack := byIP["global-stack/16"]
	poolBest := byIP["pool-linear/16"]
	if stack.Speedup >= poolBest.Speedup {
		t.Errorf("stack speedup %.1f >= pool %.1f — paper expects the stack to lag", stack.Speedup, poolBest.Speedup)
	}
	if float64(stack.Makespan) < 1.1*float64(poolBest.Makespan) {
		t.Errorf("stack makespan %d not clearly slower than pool %d", stack.Makespan, poolBest.Makespan)
	}
	if !strings.Contains(RenderApp(rows), "global-stack") {
		t.Error("render incomplete")
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Trials != workload.PaperTrials || c.Procs != 16 || c.Ops != 5000 || c.Fill != 320 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	custom := Config{Trials: 3, Procs: 8}.withDefaults()
	if custom.Trials != 3 || custom.Procs != 8 || custom.Ops != 5000 {
		t.Fatalf("custom overrides lost: %+v", custom)
	}
}

func TestFmtF(t *testing.T) {
	cases := map[float64]string{0: "0", 5.234: "5.23", 42.5: "42.5", 1234.5: "1234"}
	for v, want := range cases {
		if got := fmtF(v); got != want {
			t.Errorf("fmtF(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestDynamicRolesChurnCosts(t *testing.T) {
	// Section 3.3: fixed roles are the paper's simplifying assumption;
	// our extension shows that rotating roles frequently introduces
	// starvation windows (the new producer's segment is empty right after
	// a flip), visible as aborted removes that fixed roles never incur.
	cfg := quickCfg()
	cfg.Trials = 1
	rows := DynamicRoles(cfg)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, kind := range []search.Kind{search.Linear, search.Tree} {
		var fixed, rotating *DynamicRolesRow
		for i := range rows {
			r := &rows[i]
			if r.Kind != kind {
				continue
			}
			if r.FlipEvery == 0 {
				fixed = r
			} else if r.FlipEvery == 10 {
				rotating = r
			}
		}
		if fixed == nil || rotating == nil {
			t.Fatal("missing rows")
		}
		if rotating.Point.AbortsPerOp <= fixed.Point.AbortsPerOp {
			t.Errorf("%v: rotation aborts %.3f <= fixed %.3f", kind,
				rotating.Point.AbortsPerOp, fixed.Point.AbortsPerOp)
		}
	}
	if !strings.Contains(table(rolesCols, rows), "rotate/10 ops") {
		t.Error("render incomplete")
	}
}
