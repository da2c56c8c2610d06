package harness

import (
	"fmt"

	"pools/internal/keyed"
	"pools/internal/numa"
	"pools/internal/plot"
	"pools/internal/rng"
)

// This file measures the keyed pool's topology-aware sweep. The keyed
// pool (internal/keyed) walks the segment ring when a class misses
// locally; a VictimOrder whose plan ranks the victims reorders that walk.
// On a clustered machine the question is the same one the hierarchical
// sweep asks of the plain pool: how many of those probes cross a cluster
// boundary? The keyed pool has no virtual clock, so the experiment counts
// probes (keyed.Pool.ProbeStats) and prices them under the cost model —
// the counts are workload-determined, the price scales with the swept
// per-hop delay.

// KeyedLocOrderNames lists the sweep orders compared: the default ring
// walk, the cost-ranked order, and cluster-first hierarchical rings.
func KeyedLocOrderNames() []string { return []string{"ring", "locality", "hier"} }

// KeyedLocRow is one (sweep order, delay scale) measurement.
type KeyedLocRow struct {
	Order        string
	DelayUS      int64
	ProbesPerGet float64 // remote probes per completed Get
	CrossFrac    float64 // fraction of remote probes crossing a cluster
	CostPerGet   float64 // modeled probe cost per Get (virt µs)
	Misses       int64   // Gets that found no element of their class
}

// KeyedLocalitySweep drives a clustered keyed workload under each sweep
// order and delay scale: every handle produces elements of its own class
// (so each class is homed at its own segment) and consumes classes biased
// three-to-one toward its own cluster — the locality a clustered machine
// rewards. Expected shape: the ring walk wanders across cluster
// boundaries on most sweeps, so its cross fraction is high at every
// scale; the hierarchical rank stays near first and its cross fraction is
// structurally lower, with the modeled probe cost diverging linearly in
// the delay scale; the locality rank matches ring at scale 0 (a
// victim-uniform model ranks nothing) and joins hier once the scale makes
// costs non-uniform.
func KeyedLocalitySweep(cfg Config, scales []int64) []KeyedLocRow {
	c := cfg.withDefaults()
	topo := numa.Clusters{Size: LocalityClusterSize}
	farHops := int64(topo.Distance(0, LocalityClusterSize)) // cross-cluster hop count
	var out []KeyedLocRow
	for _, name := range KeyedLocOrderNames() {
		for _, d := range scales {
			costs := c.Costs.WithTopology(topo).WithExtraDelay(d)
			p, err := keyed.New[int, int](keyed.Options{
				Segments: c.Procs,
				Policies: orderSet(name, costs, topo),
				Topology: topo,
			})
			if err != nil {
				panic(err) // programmer error: the config is static
			}
			// Home Fill elements: class s lives at segment s.
			per := c.Fill / c.Procs
			if per < 1 {
				per = 1
			}
			for s := 0; s < c.Procs; s++ {
				for j := 0; j < per; j++ {
					p.Handle(s).Put(s, j)
				}
			}
			x := rng.NewXoshiro256(rng.SubSeed(c.Seed, int(d)))
			var misses int64
			size := LocalityClusterSize
			for i := 0; i < c.Ops; i++ {
				h := p.Handle(i % c.Procs)
				// Replenish the handle's own class so the pool never
				// drains (a drained pool costs every order one full
				// sweep per Get, erasing the ordering signal).
				h.Put(h.ID(), i)
				var k int
				if i%4 != 3 {
					k = (h.ID()/size)*size + int(x.Next()%uint64(size))
				} else {
					k = int(x.Next() % uint64(c.Procs))
				}
				if _, ok := h.Get(k); !ok {
					misses++
				}
			}
			remote, cross := p.ProbeStats()
			near := remote - cross
			remoteProbe := costs.ProbeCost * costs.RemoteFactor
			cost := float64(near)*float64(remoteProbe+d) + float64(cross)*float64(remoteProbe+d*farHops)
			gets := float64(c.Ops)
			row := KeyedLocRow{
				Order:        name,
				DelayUS:      d,
				ProbesPerGet: float64(remote) / gets,
				CostPerGet:   cost / gets,
				Misses:       misses,
			}
			if remote > 0 {
				row.CrossFrac = float64(cross) / float64(remote)
			}
			out = append(out, row)
		}
	}
	return out
}

var keyedLocCols = []col[KeyedLocRow]{
	str("order", "order", func(r KeyedLocRow) string { return r.Order }),
	count("delay (µs)", "delay_us", func(r KeyedLocRow) int64 { return r.DelayUS }),
	dec("probes/get", 2, "probes_per_get", 3, func(r KeyedLocRow) float64 { return r.ProbesPerGet }),
	dec("cross-frac", 3, "cross_frac", 4, func(r KeyedLocRow) float64 { return r.CrossFrac }),
	num("probe µs/get", "probe_cost_per_get", 2, func(r KeyedLocRow) float64 { return r.CostPerGet }),
	count("misses", "misses", func(r KeyedLocRow) int64 { return r.Misses }),
}

// keyedLocReport draws the keyed sweep — modeled probe cost per Get
// across the delay scales, one series per sweep order — and its table,
// and the sweep as CSV.
func keyedLocReport(rows []KeyedLocRow) (text, csv string) {
	chart := plot.LineChart(
		fmt.Sprintf("Keyed locality sweep: modeled probe cost per Get vs added remote delay (%d-proc clusters)", LocalityClusterSize),
		"added delay per remote op (virt µs)", "probe cost per Get (virt µs)",
		70, 14,
		seriesBy(rows, func(r KeyedLocRow) string { return r.Order },
			func(r KeyedLocRow) float64 { return float64(r.DelayUS) },
			func(r KeyedLocRow) float64 { return r.CostPerGet }),
	)
	return chart + "\n" + table(keyedLocCols, rows), csvOf(keyedLocCols, rows)
}
