package harness

import (
	"strings"
	"testing"
)

// TestHierSweepReducesCrossProbes is the tentpole acceptance bar: the
// hierarchical order's cross-cluster probe fraction must sit below every
// flat order's at both the zero and the largest swept delay (the
// discipline is structural, not delay-dependent), and at the largest
// delay its average operation time must beat both flat orders — each
// avoided crossing is worth Far hops of added delay.
func TestHierSweepReducesCrossProbes(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 1989, Ops: 1200, Fill: 96}
	scales := []int64{0, 5000}
	rows := HierSweep(cfg, scales)
	if len(rows) != len(scales)*len(HierOrderNames()) {
		t.Fatalf("sweep produced %d rows, want %d", len(rows), len(scales)*len(HierOrderNames()))
	}
	at := func(order string, d int64) Point {
		for _, r := range rows {
			if r.Order == order && r.DelayUS == d {
				return r.Point
			}
		}
		t.Fatalf("row (%s, %d) missing", order, d)
		return Point{}
	}
	for _, d := range scales {
		hier := at("hier", d).CrossProbeFrac
		if lin := at("linear", d).CrossProbeFrac; hier >= lin {
			t.Errorf("at delay %d hier cross-frac %.3f >= linear %.3f", d, hier, lin)
		}
		if ran := at("random", d).CrossProbeFrac; hier >= ran {
			t.Errorf("at delay %d hier cross-frac %.3f >= random %.3f", d, hier, ran)
		}
	}
	const top = 5000
	hier := at("hier", top).AvgOpTime
	if lin := at("linear", top).AvgOpTime; hier >= lin {
		t.Errorf("hier %.0f µs/op >= linear %.0f at delay %d", hier, lin, top)
	}
	if ran := at("random", top).AvgOpTime; hier >= ran {
		t.Errorf("hier %.0f µs/op >= random %.0f at delay %d", hier, ran, top)
	}
	// The topology-aware placement must cut crossings further still: it
	// steers adds near, so searches cross even less.
	if hp, h := at("hier-place", top).CrossProbeFrac, at("hier", top).CrossProbeFrac; hp >= h {
		t.Errorf("hier-place cross-frac %.3f >= hier %.3f at delay %d", hp, h, top)
	}
}

// TestRenderHier checks the figures, table, and CSV carry the sweep.
func TestRenderHier(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 7, Ops: 600, Fill: 64}
	rows := HierSweep(cfg, []int64{0, 1000})
	out, csv := hierReport(rows, "4-proc clusters")
	for _, want := range []string{"cross-cluster probe fraction", "avg operation time", "hier-adaptive", "vs best flat"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if !strings.Contains(csv, "order,topology,delay_us,cross_probe_frac,avg_op_us") {
		t.Errorf("CSV header missing:\n%s", csv)
	}
	if !strings.Contains(csv, ",clusters-4,") {
		t.Errorf("CSV rows missing the topology column:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != len(rows)+1 {
		t.Errorf("CSV has %d lines, want %d", got, len(rows)+1)
	}
}

// TestKeyedLocalitySweepShape checks the keyed sweep's headline: the
// hierarchical rank's cross fraction sits below the ring walk's at every
// scale, its modeled probe cost beats the ring walk at the largest scale,
// and at scale 0 the locality rank coincides with the ring walk (a
// victim-uniform model ranks nothing).
func TestKeyedLocalitySweepShape(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 1989, Ops: 1500, Fill: 96}
	scales := []int64{0, 5000}
	rows := KeyedLocalitySweep(cfg, scales)
	if len(rows) != len(scales)*len(KeyedLocOrderNames()) {
		t.Fatalf("sweep produced %d rows, want %d", len(rows), len(scales)*len(KeyedLocOrderNames()))
	}
	at := func(order string, d int64) KeyedLocRow {
		for _, r := range rows {
			if r.Order == order && r.DelayUS == d {
				return r
			}
		}
		t.Fatalf("row (%s, %d) missing", order, d)
		return KeyedLocRow{}
	}
	for _, d := range scales {
		if h, r := at("hier", d).CrossFrac, at("ring", d).CrossFrac; h >= r {
			t.Errorf("at delay %d hier cross-frac %.3f >= ring %.3f", d, h, r)
		}
	}
	if h, r := at("hier", 5000).CostPerGet, at("ring", 5000).CostPerGet; h >= r {
		t.Errorf("hier cost/Get %.0f >= ring %.0f at delay 5000", h, r)
	}
	if l, r := at("locality", 0), at("ring", 0); l.ProbesPerGet != r.ProbesPerGet || l.CrossFrac != r.CrossFrac {
		t.Errorf("at zero delay locality (%v) != ring (%v): fallback must coincide", l, r)
	}
}

// TestRenderKeyedLoc checks the figure, table, and CSV carry the sweep.
func TestRenderKeyedLoc(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 7, Ops: 600, Fill: 64}
	rows := KeyedLocalitySweep(cfg, []int64{0, 1000})
	out, csv := keyedLocReport(rows)
	for _, want := range []string{"Keyed locality sweep", "probe cost per Get", "cross-frac", "misses"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if !strings.Contains(csv, "order,delay_us,probes_per_get,cross_frac") {
		t.Errorf("CSV header missing:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != len(rows)+1 {
		t.Errorf("CSV has %d lines, want %d", got, len(rows)+1)
	}
}
