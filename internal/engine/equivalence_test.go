package engine_test

// Seeded differential tests for the engine extraction: the golden
// fingerprints below were recorded by running exactly these drivers
// against the PRE-engine substrates (each of core, sim, and keyed still
// carrying its own hand-rolled search-steal loop). The extraction must be
// behavior-preserving: same seeds → same steals, probes, aborts,
// cross-fractions, and PoolStats on every substrate and policy
// combination. A mismatch here means the shared engine diverged from the
// protocol the paper's experiments measured.
//
// The drivers are single-goroutine (the real pool is driven round-robin
// over its handles), which makes every substrate deterministic; keyed
// GetAny is deliberately excluded because map iteration order makes it
// nondeterministic even under a fixed seed.

import (
	"fmt"
	"testing"

	"pools/internal/core"
	"pools/internal/keyed"
	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// statsFingerprint renders the deterministic PoolStats fields (timing
// summaries are wall-clock on the real pool and therefore excluded).
func statsFingerprint(s metrics.PoolStats) string {
	return fmt.Sprintf("adds=%d removes=%d local=%d steals=%d aborts=%d examined=%.0f stolen=%.0f remote=%d cross=%d gives=%d recvs=%d batchAdds=%d batchRemoves=%d",
		s.Adds, s.Removes, s.LocalRemoves, s.Steals, s.Aborts,
		s.SegmentsExamined.Sum(), s.ElementsStolen.Sum(),
		s.RemoteProbes, s.CrossProbes, s.DirectedGives, s.DirectedReceives,
		s.BatchAdds, s.BatchRemoves)
}

func corePolicies(name string) policy.Set {
	topo := numa.Clusters{Size: 2}
	switch name {
	case "default":
		return policy.Set{}
	case "tree":
		return policy.Set{Order: search.Tree}
	case "random":
		return policy.Set{Order: search.Random}
	case "hier-emptiest":
		return policy.Set{
			Order: policy.HierarchicalOrder{Topo: topo},
			Place: policy.GiftToEmptiest{},
		}
	case "per-handle-locality":
		p := policy.NewPerHandle()
		return policy.Set{
			Steal:   p,
			Control: p,
			Order:   policy.LocalityOrder{Model: numa.ButterflyCosts().WithTopology(topo)},
		}
	}
	panic(name)
}

// coreFingerprint drives the real pool deterministically from one
// goroutine: a seeded op mix over all handles, counting results and final
// stats.
func coreFingerprint(name string, seed uint64) string {
	p, err := core.New[int](core.Options{
		Segments:     8,
		Seed:         seed,
		Policies:     corePolicies(name),
		Topology:     numa.Clusters{Size: 2},
		CollectStats: true,
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 8; i++ {
		p.Handle(i).Register()
	}
	x := rng.NewXoshiro256(seed)
	got, misses, batchGot := 0, 0, 0
	for op := 0; op < 4000; op++ {
		h := p.Handle(int(x.Next() % 8))
		switch x.Next() % 10 {
		case 0, 1, 2, 3: // put
			h.Put(op)
		case 4: // batch put
			vs := make([]int, 1+int(x.Next()%5))
			for i := range vs {
				vs[i] = op
			}
			h.PutAll(vs)
		case 5, 6, 7, 8: // get
			if _, ok := h.Get(); ok {
				got++
			} else {
				misses++
			}
		case 9: // batch get
			batchGot += len(h.GetN(1 + int(x.Next()%5)))
		}
	}
	return fmt.Sprintf("got=%d misses=%d batchGot=%d len=%d | %s",
		got, misses, batchGot, p.Len(), statsFingerprint(p.Stats()))
}

// simFingerprint runs one simulated trial per configuration name.
func simFingerprint(name string, seed uint64) string {
	topo := numa.Clusters{Size: 4}
	costs := numa.ButterflyCosts().WithTopology(topo).WithExtraDelay(100)
	w := workload.Config{
		Procs: 16, TotalOps: 4000, InitialElements: 320,
		Model: workload.RandomOps, AddFraction: 0.3,
	}
	cfg := sim.RunConfig{Workload: w, Costs: costs, Seed: seed}
	switch name {
	case "default":
	case "tree":
		cfg.Policies = policy.Set{Order: search.Tree}
	case "random":
		cfg.Policies = policy.Set{Order: search.Random}
	case "hier":
		cfg.Policies = policy.Set{Order: policy.HierarchicalOrder{Topo: topo}}
	case "hier-adaptive":
		p := policy.NewPerHandle()
		cfg.Policies = policy.Set{Order: policy.HierarchicalOrder{Topo: topo}, Steal: p, Control: p}
	case "burst-emptiest":
		w.Model = workload.Burst
		w.BatchSize = 8
		w.Producers = 4
		w.Arrangement = workload.Balanced
		cfg.Workload = w
		cfg.Policies = policy.Set{Place: policy.GiftToEmptiest{}}
	}
	res := sim.Run(cfg)
	return fmt.Sprintf("makespan=%d remaining=%d | %s",
		res.Makespan, res.Remaining, statsFingerprint(res.Stats))
}

func keyedPolicies(name string) (policy.Set, numa.Topology) {
	topo := numa.Clusters{Size: 2}
	switch name {
	case "default":
		return policy.Set{}, topo
	case "locality":
		return policy.Set{Order: policy.LocalityOrder{Model: numa.ButterflyCosts().WithTopology(topo)}}, topo
	case "hier":
		return policy.Set{Order: policy.HierarchicalOrder{Topo: topo}}, topo
	case "per-handle-emptiest":
		p := policy.NewPerHandle()
		return policy.Set{Steal: p, Control: p, Place: policy.GiftToEmptiest{}}, topo
	}
	panic(name)
}

// keyedFingerprint drives the keyed pool deterministically (no GetAny:
// map iteration order would break determinism).
func keyedFingerprint(name string, seed uint64) string {
	pol, topo := keyedPolicies(name)
	p, err := keyed.New[int, int](keyed.Options{
		Segments: 8,
		Sweeps:   2,
		Policies: pol,
		Topology: topo,
	})
	if err != nil {
		panic(err)
	}
	x := rng.NewXoshiro256(seed)
	got, misses, batchGot := 0, 0, 0
	for op := 0; op < 4000; op++ {
		h := p.Handle(int(x.Next() % 8))
		k := int(x.Next() % 4)
		switch x.Next() % 10 {
		case 0, 1, 2, 3:
			h.Put(k, op)
		case 4:
			vs := make([]int, 1+int(x.Next()%5))
			for i := range vs {
				vs[i] = op
			}
			h.PutAll(k, vs)
		case 5, 6, 7, 8:
			if _, ok := h.Get(k); ok {
				got++
			} else {
				misses++
			}
		case 9:
			batchGot += len(h.GetN(k, 1+int(x.Next()%5)))
		}
	}
	remote, cross := p.ProbeStats()
	return fmt.Sprintf("got=%d misses=%d batchGot=%d len=%d k0=%d k3=%d remote=%d cross=%d",
		got, misses, batchGot, p.Len(), p.LenKey(0), p.LenKey(3), remote, cross)
}

// golden maps substrate/config/seed to the fingerprint recorded against
// the pre-engine implementations. Do not regenerate these from current
// code after touching the protocol: a diff here is the finding.
var golden = map[string]string{
	"core/default/1":                 "got=1609 misses=0 batchGot=1004 len=161 | adds=2774 removes=2613 local=2463 steals=123 aborts=0 examined=171 stolen=450 remote=161 cross=136 gives=0 recvs=0 batchAdds=386 batchRemoves=384",
	"core/default/1989":              "got=1588 misses=0 batchGot=1049 len=127 | adds=2764 removes=2637 local=2492 steals=121 aborts=3 examined=155 stolen=444 remote=167 cross=135 gives=0 recvs=0 batchAdds=390 batchRemoves=412",
	"core/tree/1":                    "got=1609 misses=0 batchGot=1003 len=162 | adds=2774 removes=2612 local=2491 steals=104 aborts=0 examined=162 stolen=365 remote=137 cross=108 gives=0 recvs=0 batchAdds=386 batchRemoves=384",
	"core/tree/1989":                 "got=1588 misses=0 batchGot=1068 len=108 | adds=2764 removes=2656 local=2507 steals=124 aborts=3 examined=175 stolen=474 remote=179 cross=155 gives=0 recvs=0 batchAdds=390 batchRemoves=412",
	"core/random/1":                  "got=1609 misses=0 batchGot=1020 len=145 | adds=2774 removes=2629 local=2517 steals=91 aborts=0 examined=118 stolen=447 remote=106 cross=97 gives=0 recvs=0 batchAdds=386 batchRemoves=384",
	"core/random/1989":               "got=1588 misses=0 batchGot=1076 len=100 | adds=2764 removes=2664 local=2553 steals=93 aborts=3 examined=134 stolen=465 remote=169 cross=137 gives=0 recvs=0 batchAdds=390 batchRemoves=412",
	"core/hier-emptiest/1":           "got=1609 misses=0 batchGot=1057 len=108 | adds=2774 removes=2666 local=2639 steals=24 aborts=0 examined=53 stolen=51 remote=6050 cross=5028 gives=0 recvs=0 batchAdds=386 batchRemoves=384",
	"core/hier-emptiest/1989":        "got=1588 misses=0 batchGot=1120 len=56 | adds=2764 removes=2708 local=2670 steals=36 aborts=3 examined=82 stolen=75 remote=6058 cross=5017 gives=0 recvs=0 batchAdds=390 batchRemoves=412",
	"core/per-handle-locality/1":     "got=1609 misses=0 batchGot=1013 len=152 | adds=2774 removes=2622 local=2452 steals=126 aborts=0 examined=175 stolen=345 remote=164 cross=153 gives=0 recvs=0 batchAdds=386 batchRemoves=384",
	"core/per-handle-locality/1989":  "got=1588 misses=0 batchGot=1060 len=116 | adds=2764 removes=2648 local=2415 steals=193 aborts=3 examined=248 stolen=527 remote=258 cross=230 gives=0 recvs=0 batchAdds=390 batchRemoves=412",
	"sim/default/1":                  "makespan=585915 remaining=0 | adds=1206 removes=1526 local=1360 steals=166 aborts=1268 examined=788 stolen=189 remote=13105 cross=10653 gives=0 recvs=0 batchAdds=0 batchRemoves=0",
	"sim/default/1989":               "makespan=603995 remaining=2 | adds=1210 removes=1528 local=1365 steals=163 aborts=1262 examined=863 stolen=197 remote=13522 cross=11049 gives=0 recvs=0 batchAdds=0 batchRemoves=0",
	"sim/tree/1":                     "makespan=1930186 remaining=3 | adds=1220 removes=1537 local=1505 steals=32 aborts=1243 examined=95 stolen=41 remote=5423 cross=2073 gives=0 recvs=0 batchAdds=0 batchRemoves=0",
	"sim/tree/1989":                  "makespan=1872145 remaining=0 | adds=1205 removes=1525 local=1491 steals=34 aborts=1270 examined=93 stolen=45 remote=5234 cross=2008 gives=0 recvs=0 batchAdds=0 batchRemoves=0",
	"sim/random/1":                   "makespan=564966 remaining=0 | adds=1224 removes=1544 local=1384 steals=160 aborts=1232 examined=1017 stolen=186 remote=12199 cross=9795 gives=0 recvs=0 batchAdds=0 batchRemoves=0",
	"sim/random/1989":                "makespan=538449 remaining=1 | adds=1211 removes=1530 local=1365 steals=165 aborts=1259 examined=942 stolen=218 remote=11698 cross=9403 gives=0 recvs=0 batchAdds=0 batchRemoves=0",
	"sim/hier/1":                     "makespan=520720 remaining=1 | adds=1208 removes=1527 local=1344 steals=183 aborts=1265 examined=1163 stolen=209 remote=13030 cross=8758 gives=0 recvs=0 batchAdds=0 batchRemoves=0",
	"sim/hier/1989":                  "makespan=516877 remaining=0 | adds=1202 removes=1522 local=1332 steals=190 aborts=1276 examined=1074 stolen=241 remote=13218 cross=8901 gives=0 recvs=0 batchAdds=0 batchRemoves=0",
	"sim/hier-adaptive/1":            "makespan=512889 remaining=0 | adds=1213 removes=1533 local=1351 steals=182 aborts=1254 examined=877 stolen=187 remote=12653 cross=8379 gives=0 recvs=0 batchAdds=0 batchRemoves=0",
	"sim/hier-adaptive/1989":         "makespan=499201 remaining=0 | adds=1199 removes=1519 local=1330 steals=189 aborts=1282 examined=1012 stolen=205 remote=13026 cross=8769 gives=0 recvs=0 batchAdds=0 batchRemoves=0",
	"sim/burst-emptiest/1":           "makespan=78711 remaining=176 | adds=1920 removes=2064 local=1193 steals=139 aborts=16 examined=540 stolen=645 remote=1277 cross=457 gives=0 recvs=0 batchAdds=240 batchRemoves=343",
	"sim/burst-emptiest/1989":        "makespan=78711 remaining=176 | adds=1920 removes=2064 local=1193 steals=139 aborts=16 examined=540 stolen=645 remote=1277 cross=457 gives=0 recvs=0 batchAdds=240 batchRemoves=343",
	"keyed/default/1":                "got=1602 misses=26 batchGot=848 len=243 k0=42 k3=71 remote=1231 cross=1071",
	"keyed/default/1989":             "got=1550 misses=25 batchGot=927 len=328 k0=46 k3=84 remote=781 cross=673",
	"keyed/locality/1":               "got=1602 misses=26 batchGot=848 len=243 k0=42 k3=71 remote=1231 cross=1071",
	"keyed/locality/1989":            "got=1550 misses=25 batchGot=927 len=328 k0=46 k3=84 remote=781 cross=673",
	"keyed/hier/1":                   "got=1591 misses=37 batchGot=856 len=246 k0=44 k3=73 remote=1613 cross=1034",
	"keyed/hier/1989":                "got=1550 misses=25 batchGot=935 len=320 k0=41 k3=76 remote=866 cross=548",
	"keyed/per-handle-emptiest/1":    "got=1586 misses=42 batchGot=894 len=213 k0=32 k3=78 remote=7505 cross=6315",
	"keyed/per-handle-emptiest/1989": "got=1548 misses=27 batchGot=924 len=333 k0=44 k3=84 remote=6926 cross=5785",
}

var seeds = []uint64{1, 1989}

// TestCoreEquivalence asserts the engine-driven real pool reproduces the
// pre-engine fingerprints bit for bit.
func TestCoreEquivalence(t *testing.T) {
	for _, name := range []string{"default", "tree", "random", "hier-emptiest", "per-handle-locality"} {
		for _, seed := range seeds {
			key := fmt.Sprintf("core/%s/%d", name, seed)
			if got := coreFingerprint(name, seed); got != golden[key] {
				t.Errorf("%s diverged from the pre-engine protocol\n got: %s\nwant: %s", key, got, golden[key])
			}
		}
	}
}

// TestSimEquivalence asserts the engine-driven simulator reproduces the
// pre-engine fingerprints (including makespans: every virtual-time charge
// must land in the same order).
func TestSimEquivalence(t *testing.T) {
	for _, name := range []string{"default", "tree", "random", "hier", "hier-adaptive", "burst-emptiest"} {
		for _, seed := range seeds {
			key := fmt.Sprintf("sim/%s/%d", name, seed)
			if got := simFingerprint(name, seed); got != golden[key] {
				t.Errorf("%s diverged from the pre-engine protocol\n got: %s\nwant: %s", key, got, golden[key])
			}
		}
	}
}

// TestKeyedEquivalence asserts the engine-driven keyed pool reproduces
// the pre-engine fingerprints, sweep orders and probe accounting
// included.
func TestKeyedEquivalence(t *testing.T) {
	for _, name := range []string{"default", "locality", "hier", "per-handle-emptiest"} {
		for _, seed := range seeds {
			key := fmt.Sprintf("keyed/%s/%d", name, seed)
			if got := keyedFingerprint(name, seed); got != golden[key] {
				t.Errorf("%s diverged from the pre-engine protocol\n got: %s\nwant: %s", key, got, golden[key])
			}
		}
	}
}
