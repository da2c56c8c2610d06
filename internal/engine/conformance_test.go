package engine_test

// One conformance suite for the protocol written once in this package:
// every script runs against every substrate (core, keyed and sim), and
// the outcomes must agree wherever the pool lives. Each row adapts a
// pool built from one confCase to confPool; each script builds the cases
// it needs and checks them through that API alone.

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"pools/internal/core"
	"pools/internal/keyed"
	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/trace"
)

const (
	confSegs = 4
	confFill = 40
	confBuf  = 4096 // flight-recorder events per handle
	confKey  = "k"  // the keyed row's one class
)

// confCase is one pool a script runs on.
type confCase struct {
	segs  int
	pol   policy.Set
	topo  numa.Topology
	seed  uint64
	fill  map[int]int // handle i puts fill[i] elements into its own segment before the actor runs
	actor int         // the handle the script operates (the only one, on an actorOnly row)
}

// fillValues returns the elements handle i prefills: i*1000 upward, so a
// script can tell which segment an element came from.
func (c confCase) fillValues(i int) []int {
	vs := make([]int, c.fill[i])
	for k := range vs {
		vs[k] = i*1000 + k
	}
	return vs
}

// confPool is one substrate seen through the API the scripts share.
// Handle operations take the handle's index. A field is nil where the
// substrate has no such API.
type confPool struct {
	actorOnly bool // only the case's actor may operate
	put       func(h, v int)
	putAll    func(h int, vs []int)
	get       func(h int) (int, bool)
	getN      func(h, max int) []int
	fill0     func(v int) // puts v into segment 0, which must be live
	length    func() int
	segLen    func(i int) int
	kill      func(i int, drain bool) bool
	revive    func(i int) bool
	alive     func(i int) bool
	victim    func(i int) bool
	epoch     func() uint64
	stats     func(h int) metrics.PoolStats
	// controller and batchSize read handle h's resolved controller and
	// its batch recommendation.
	controller func(h int) policy.Controller
	batchSize  func(h, current int) int
	// probes sums the remote and cross-cluster probes of every handle;
	// read it only while no operation is in flight.
	probes    func() (remote, cross int64)
	timelines func() []trace.Timeline
}

// confRow builds one substrate's pool for a case, applies the case's
// prefill and hands the adapted pool to act.
type confRow struct {
	name string
	// actorOnly rows run every operation on the actor's own processor,
	// so scripts that drive several handles cannot run there.
	actorOnly bool
	// laps rows end a lone searcher's search after one segment count of
	// fruitless probes (engine.Laps), before an escalation threshold
	// beyond that lets it cross.
	laps  bool
	build func(t *testing.T, c confCase, act func(confPool))
}

var confRows = []confRow{
	{name: "core", build: func(t *testing.T, c confCase, act func(confPool)) {
		p, err := core.New[int](core.Options{
			Segments: c.segs, Policies: c.pol, Topology: c.topo, Seed: c.seed,
			CollectStats: true, TraceBuf: confBuf,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.segs {
			p.Handle(i).PutAll(c.fillValues(i))
		}
		act(confPool{
			put:        func(h, v int) { p.Handle(h).Put(v) },
			putAll:     func(h int, vs []int) { p.Handle(h).PutAll(vs) },
			get:        func(h int) (int, bool) { return p.Handle(h).Get() },
			getN:       func(h, max int) []int { return p.Handle(h).GetN(max) },
			fill0:      p.Handle(0).Put,
			length:     p.Len,
			segLen:     p.SegmentLen,
			kill:       p.Kill,
			revive:     p.Revive,
			alive:      p.Alive,
			victim:     p.Victim,
			epoch:      p.Epoch,
			stats:      func(h int) metrics.PoolStats { return p.Handle(h).Stats() },
			controller: func(h int) policy.Controller { return p.Handle(h).Controller() },
			batchSize:  func(h, current int) int { return p.Handle(h).BatchSize(current) },
			probes:     func() (int64, int64) { st := p.Stats(); return st.RemoteProbes, st.CrossProbes },
			timelines:  p.Timelines,
		})
	}},
	{name: "keyed", build: func(t *testing.T, c confCase, act func(confPool)) {
		p, err := keyed.New[string, int](keyed.Options{
			Segments: c.segs, Policies: c.pol, Topology: c.topo, TraceBuf: confBuf,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.segs {
			p.Handle(i).PutAll(confKey, c.fillValues(i))
		}
		act(confPool{
			put:       func(h, v int) { p.Handle(h).Put(confKey, v) },
			putAll:    func(h int, vs []int) { p.Handle(h).PutAll(confKey, vs) },
			get:       func(h int) (int, bool) { return p.Handle(h).Get(confKey) },
			getN:      func(h, max int) []int { return p.Handle(h).GetN(confKey, max) },
			fill0:     func(v int) { p.Handle(0).Put(confKey, v) },
			length:    p.Len,
			segLen:    p.SegmentLen,
			kill:      p.Kill,
			revive:    p.Revive,
			alive:     p.Alive,
			victim:    p.Victim,
			epoch:     p.Epoch,
			probes:    p.ProbeStats,
			timelines: p.Timelines,
		})
	}},
	{name: "sim", actorOnly: true, laps: true, build: func(t *testing.T, c confCase, act func(confPool)) {
		costs := numa.ButterflyCosts()
		if c.topo != nil {
			costs = costs.WithTopology(c.topo)
		}
		p := sim.NewPool[int](sim.PoolConfig{
			Procs: c.segs, Costs: costs, Seed: c.seed, Policies: c.pol, EventBuf: confBuf,
		})
		procs := make([]*sim.Proc[int], c.segs)
		filled := 0
		bodies := make([]func(*sim.Env), c.segs)
		for id := range bodies {
			bodies[id] = func(env *sim.Env) {
				pr := p.Proc(env) // binds (and attaches) every recorder
				procs[id] = pr
				pr.PutAll(c.fillValues(id))
				filled++
				if id != c.actor {
					pr.Retire() // the actor alone counts toward the all-searching rule
					return
				}
				for filled < c.segs {
					env.Compute(1) // let every other processor prefill first
				}
				own := func(h int) *sim.Proc[int] {
					if h != c.actor {
						panic(fmt.Sprintf("sim row: handle %d operated from processor %d", h, c.actor))
					}
					return pr
				}
				act(confPool{
					actorOnly: true,
					put:       func(h, v int) { own(h).Put(v) },
					putAll:    func(h int, vs []int) { own(h).PutAll(vs) },
					get:       func(h int) (int, bool) { return own(h).Get() },
					getN:      func(h, max int) []int { return own(h).GetN(max) },
					fill0:     p.Inject,
					length:    p.Len,
					segLen:    p.SegmentLen,
					kill:      func(i int, drain bool) bool { return p.Kill(env, i, drain) },
					revive:    p.Revive,
					alive:     p.Alive,
					stats:     func(h int) metrics.PoolStats { return *own(h).Stats() },
					probes: func() (remote, cross int64) {
						for _, q := range procs {
							remote, cross = remote+q.Stats().RemoteProbes, cross+q.Stats().CrossProbes
						}
						return remote, cross
					},
					timelines: p.Timelines,
				})
			}
		}
		sim.RunProcs(bodies...)
	}},
}

// run builds c on row r and runs body on it as subtest name. Bodies
// check with Errorf and return, never Fatal: the sim row's body runs on
// a processor's coroutine, not the test goroutine.
func (r confRow) run(t *testing.T, name string, c confCase, body func(*testing.T, confPool)) {
	t.Run(name, func(t *testing.T) {
		ran := false
		r.build(t, c, func(p confPool) {
			ran = true
			body(t, p)
		})
		if !ran {
			t.Fatal("script never ran")
		}
	})
}

var confScripts = []struct {
	name string
	// multi scripts operate several handles, or goroutines: actorOnly
	// rows skip them.
	multi bool
	run   func(t *testing.T, r confRow)
}{
	{"batch", false, batchScript},
	{"steal-amount", false, stealAmountScript},
	{"hierarchy", false, hierarchyScript},
	{"placement", false, placementScript},
	{"controllers", true, controllersScript},
	{"race", true, raceScript},
	{"churn", false, churnScript},
}

// TestSubstrateConformance runs every script on every substrate.
func TestSubstrateConformance(t *testing.T) {
	for _, r := range confRows {
		t.Run(r.name, func(t *testing.T) {
			for _, s := range confScripts {
				t.Run(s.name, func(t *testing.T) {
					if s.multi && r.actorOnly {
						t.Skip("drives several handles; each processor of this substrate operates only on its own coroutine")
					}
					s.run(t, r)
				})
			}
		})
	}
}

// recorded sums Arg2 by Arg1 over handle h's events of the given kind:
// elements moved per victim for trace.ReserveTransfer, elements placed
// per target for trace.DirectPlace.
func recorded(p confPool, h int, kind trace.Kind) map[int]int {
	sums := map[int]int{}
	for _, tl := range p.timelines() {
		if tl.Handle != h {
			continue
		}
		for _, ev := range tl.Events {
			if ev.Kind == kind {
				sums[int(ev.Arg1)] += int(ev.Arg2)
			}
		}
	}
	return sums
}

// checkSegLens compares segment lengths.
func checkSegLens(t *testing.T, p confPool, want map[int]int) {
	for s, n := range want {
		if got := p.segLen(s); got != n {
			t.Errorf("segment %d holds %d elements, want %d", s, got, n)
		}
	}
}

// batchScript: PutAll and GetN locally, across a steal (the stolen batch
// surfaces whole), and with a cap below the steal (the rest is parked
// locally for the next, local, GetN).
func batchScript(t *testing.T, r confRow) {
	r.run(t, "local", confCase{segs: 4}, func(t *testing.T, p confPool) {
		p.putAll(0, nil)
		p.putAll(0, []int{})
		if n := p.length(); n != 0 {
			t.Errorf("empty PutAll grew the pool to %d", n)
			return
		}
		p.putAll(0, []int{1, 2, 3, 4, 5})
		checkSegLens(t, p, map[int]int{0: 5})
		if out := p.getN(0, 3); len(out) != 3 {
			t.Errorf("GetN(3) returned %d elements", len(out))
		}
		if out := p.getN(0, 10); len(out) != 2 {
			t.Errorf("GetN(10) returned %d elements, want the remaining 2", len(out))
		}
		if p.stats != nil {
			st := p.stats(0)
			if st.BatchAdds != 1 || st.BatchRemoves != 2 || st.Adds != 5 || st.Removes != 5 {
				t.Errorf("batch/element counters = %d/%d, %d/%d, want 1/2, 5/5",
					st.BatchAdds, st.BatchRemoves, st.Adds, st.Removes)
			}
		}
		// The last on an empty pool, where the abort rule fires.
		for _, max := range []int{0, -3, 5} {
			if out := p.getN(0, max); out != nil {
				t.Errorf("GetN(%d) = %v, want nil", max, out)
			}
		}
	})

	for _, kind := range search.Kinds() {
		c := confCase{segs: 8, pol: policy.Set{Order: kind}, seed: 7, fill: map[int]int{5: 40}}
		r.run(t, "steal-"+kind.String(), c, func(t *testing.T, p confPool) {
			out := p.getN(0, 64)
			// Steal-half takes ceil(40/2) = 20; all of them come back in
			// the one batch.
			if len(out) != 20 {
				t.Errorf("GetN across a steal returned %d elements, want 20", len(out))
				return
			}
			seen := map[int]bool{}
			for _, v := range out {
				if v < 5000 || v >= 5040 || seen[v] {
					t.Errorf("element %d duplicated or unknown", v)
					return
				}
				seen[v] = true
			}
			if p.stats != nil {
				if st := p.stats(0); st.Steals != 1 || st.BatchRemoves != 1 {
					t.Errorf("steals=%d batchRemoves=%d, want 1/1", st.Steals, st.BatchRemoves)
				}
			}
			if n := p.length(); n != 20 {
				t.Errorf("pool left with %d elements, want 20", n)
			}
		})
	}

	r.run(t, "cap", confCase{segs: 4, seed: 3, fill: map[int]int{2: 32}}, func(t *testing.T, p confPool) {
		if out := p.getN(0, 4); len(out) != 4 {
			t.Errorf("GetN(4) returned %d elements", len(out))
			return
		}
		// ceil(32/2) = 16 stolen, 4 returned, 12 parked locally.
		checkSegLens(t, p, map[int]int{0: 12})
		if out := p.getN(0, 100); len(out) != 12 {
			t.Errorf("follow-up GetN returned %d, want 12", len(out))
		}
	})
}

// stealAmountScript: one GetN(4) against a victim of 40 steals what the
// StealAmount policy says — one, the request, or half — returns at most
// four and parks the rest locally.
func stealAmountScript(t *testing.T, r confRow) {
	for _, a := range []struct {
		name  string
		steal policy.StealAmount
		moved int
	}{
		{"one", policy.One{}, 1},
		{"proportional", policy.Proportional{}, 4},
		{"half", policy.Half{}, 20},
	} {
		c := confCase{segs: 4, pol: policy.Set{Steal: a.steal}, seed: 3, fill: map[int]int{2: 40}}
		r.run(t, a.name, c, func(t *testing.T, p confPool) {
			got := min(a.moved, 4)
			if out := p.getN(0, 4); len(out) != got {
				t.Errorf("GetN(4) returned %d elements, want %d", len(out), got)
			}
			if moved := recorded(p, 0, trace.ReserveTransfer); !maps.Equal(moved, map[int]int{2: a.moved}) {
				t.Errorf("steals moved %v (victim: elements), want {2: %d}", moved, a.moved)
			}
			checkSegLens(t, p, map[int]int{0: a.moved - got, 2: 40 - a.moved})
			if n := p.length(); n != 40-got {
				t.Errorf("Len = %d, want %d", n, 40-got)
			}
			if p.stats != nil {
				if st := p.stats(0); st.Steals != 1 || st.ElementsStolen.Mean() != float64(a.moved) {
					t.Errorf("steals=%d hauling %.2f each, want 1 hauling %d", st.Steals, st.ElementsStolen.Mean(), a.moved)
				}
			}
		})
	}
}

// hierarchyScript: on two clusters of four, a cluster-first order takes
// a near victim without a cross-cluster probe, where the flat ring walk
// crosses; it crosses once its own cluster is dry; a cost-ranked order
// prefers the near victim too; and every escalation threshold still
// certifies emptiness once the pool drains.
func hierarchyScript(t *testing.T, r confRow) {
	topo := numa.Clusters{Size: 4} // clusters {0..3} and {4..7}
	hier := policy.Set{Order: policy.HierarchicalOrder{Topo: topo}}
	// The actor owns segment 3: segment 4 is its ring neighbour across
	// the cluster boundary, segment 0 a cluster mate.
	near := confCase{segs: 8, pol: hier, topo: topo, fill: map[int]int{0: 10, 4: 10}, actor: 3}
	flat := near
	flat.pol = policy.Set{Order: search.Linear}
	for _, c := range []struct {
		name   string
		c      confCase
		victim int // the segment the one steal takes half of
	}{{"near-first", near, 0}, {"flat-crosses", flat, 4}} {
		r.run(t, c.name, c.c, func(t *testing.T, p confPool) {
			if _, ok := p.get(3); !ok {
				t.Error("Get failed with 20 elements pooled")
				return
			}
			if moved := recorded(p, 3, trace.ReserveTransfer); !maps.Equal(moved, map[int]int{c.victim: 5}) {
				t.Errorf("steals moved %v, want {%d: 5}", moved, c.victim)
			}
			checkSegLens(t, p, map[int]int{c.victim: 5, 4 - c.victim: 10})
			if n := p.length(); n != 19 {
				t.Errorf("Len = %d, want 19", n)
			}
			remote, cross := p.probes()
			if remote == 0 {
				t.Error("no remote probes recorded")
			}
			if crossed := cross != 0; crossed != (c.victim == 4) {
				t.Errorf("%d cross-cluster probes to steal from segment %d", cross, c.victim)
			}
		})
	}

	r.run(t, "crosses-when-dry", confCase{segs: 8, pol: hier, topo: topo, fill: map[int]int{6: 10}}, func(t *testing.T, p confPool) {
		if _, ok := p.get(0); !ok {
			t.Error("Get failed with 10 elements pooled")
			return
		}
		if moved := recorded(p, 0, trace.ReserveTransfer); !maps.Equal(moved, map[int]int{6: 5}) {
			t.Errorf("steals moved %v, want {6: 5}", moved)
		}
		checkSegLens(t, p, map[int]int{6: 5})
		remote, cross := p.probes()
		if cross == 0 {
			t.Error("steal crossed clusters but no cross probe was recorded")
		}
		if cross >= remote {
			t.Errorf("cross %d >= remote %d: the near ring was never probed first", cross, remote)
		}
	})

	model := numa.ButterflyCosts().WithTopology(topo).WithExtraDelay(100)
	ranked := near
	ranked.pol = policy.Set{Order: policy.LocalityOrder{Model: model}}
	r.run(t, "ranked", ranked, func(t *testing.T, p confPool) {
		// The ring walk from 3 would cross to segment 4 first
		// (flat-crosses); the ranked GetN takes the cluster mate 0.
		if out := p.getN(3, 2); len(out) != 2 {
			t.Errorf("GetN(2) returned %d elements", len(out))
			return
		}
		if moved := recorded(p, 3, trace.ReserveTransfer); !maps.Equal(moved, map[int]int{0: 5}) {
			t.Errorf("steals moved %v, want {0: 5} from the in-cluster victim", moved)
		}
		checkSegLens(t, p, map[int]int{0: 5, 4: 10})
		if _, cross := p.probes(); cross != 0 {
			t.Errorf("%d cross-cluster probes with a near victim available", cross)
		}
	})

	// The cost-ranked order takes the near victim where the ring walk
	// crosses (flat-crosses), and its ranked plan runs no tree: a tree
	// searcher over counters the plan did not ask the pool for would
	// index out of range.
	locality := near
	locality.pol = policy.Set{Order: policy.LocalityOrder{Model: model, Fallback: search.Tree}}
	r.run(t, "locality", locality, func(t *testing.T, p confPool) {
		if _, ok := p.get(3); !ok {
			t.Error("Get failed with 20 elements pooled")
			return
		}
		if moved := recorded(p, 3, trace.ReserveTransfer); !maps.Equal(moved, map[int]int{0: 5}) {
			t.Errorf("steals moved %v, want {0: 5} from the in-cluster victim", moved)
		}
		checkSegLens(t, p, map[int]int{0: 5, 4: 10})
		if n := p.length(); n != 19 {
			t.Errorf("Len = %d, want 19", n)
		}
		if _, cross := p.probes(); cross != 0 {
			t.Errorf("%d cross-cluster probes with a near victim available", cross)
		}
	})

	// The structural default, a threshold that laps the cluster before
	// crossing, and the immediate-escalation ablation.
	for _, th := range []int{0, 64, -1} {
		name := fmt.Sprintf("threshold=%d", th)
		if r.laps && th > 8 {
			t.Run(name, func(t *testing.T) { t.Skip("the lap rule aborts before the threshold lets the search cross") })
			continue
		}
		c := confCase{segs: 8, pol: policy.Set{Order: policy.HierarchicalOrder{Topo: topo, Threshold: th}},
			topo: topo, fill: map[int]int{5: 4}}
		r.run(t, name, c, func(t *testing.T, p confPool) {
			for i := 0; i < 4; i++ {
				if _, ok := p.get(0); !ok {
					t.Errorf("Get %d failed with elements pooled", i)
					return
				}
			}
			// Drained: the search must cover every ring and abort, not
			// spin inside the near frontier forever.
			if _, ok := p.get(0); ok {
				t.Error("Get succeeded on a drained pool")
			}
		})
	}
}

// placementScript: a placement plan picks where an add lands, only the
// topology-aware one weighs the hop cost against emptiness, its probe
// budget keeps to the cheapest segments, and the tenant-fair plan keeps
// adds inside the tenant while classifying steals across it.
func placementScript(t *testing.T, r confRow) {
	r.run(t, "emptiest", confCase{segs: 4, pol: policy.Set{Place: policy.GiftToEmptiest{}}}, func(t *testing.T, p confPool) {
		p.putAll(0, make([]int, 5)) // all segments empty: the tie keeps the batch local
		p.put(0, 1)                 // segment 1 is now the nearest emptiest
		p.putAll(0, make([]int, 3)) // 2 and 3 empty: the whole batch lands on 2, the nearer
		if placed := recorded(p, 0, trace.DirectPlace); !maps.Equal(placed, map[int]int{1: 1, 2: 3}) {
			t.Errorf("placed %v away from segment 0, want {1: 1, 2: 3}", placed)
		}
		checkSegLens(t, p, map[int]int{0: 5, 1: 1, 2: 3, 3: 0})
		if n := p.length(); n != 9 {
			t.Errorf("Len = %d, want 9", n)
		}
	})

	topo := numa.Clusters{Size: 4}
	costly := numa.ButterflyCosts().WithTopology(topo).WithExtraDelay(5000)
	c := confCase{segs: 8, topo: topo, pol: policy.Set{Place: policy.GiftToNearestEmptiest{Model: costly, Probes: -1}}}
	r.run(t, "nearest-costly", c, func(t *testing.T, p confPool) {
		// The far cluster stays the emptiest throughout, but its
		// emptiness cannot buy back the hops at this delay.
		for range 4 {
			p.putAll(0, make([]int, 2))
		}
		for s := range recorded(p, 0, trace.DirectPlace) {
			if s >= 4 {
				t.Errorf("an add crossed to segment %d under a heavy hop cost", s)
			}
		}
		checkSegLens(t, p, map[int]int{4: 0, 5: 0, 6: 0, 7: 0})
		if n := p.length(); n != 8 {
			t.Errorf("Len = %d, want 8", n)
		}
		remote, cross := p.probes()
		if remote == 0 {
			t.Error("the director placed without probing")
		}
		if cross > remote {
			t.Errorf("cross probes %d exceed remote probes %d", cross, remote)
		}
	})

	cheap := numa.ButterflyCosts().WithTopology(topo)
	c = confCase{segs: 8, pol: policy.Set{Place: policy.GiftToNearestEmptiest{Model: cheap, Probes: -1}}}
	r.run(t, "nearest-cheap", c, func(t *testing.T, p confPool) {
		p.putAll(0, make([]int, 4)) // all empty: stays local
		p.put(0, 9)                 // every other segment empty and hops nearly free: gifted away
		away := 0
		for _, n := range recorded(p, 0, trace.DirectPlace) {
			away += n
		}
		if away != 1 {
			t.Errorf("placed %d elements away from segment 0, want the one add", away)
		}
		checkSegLens(t, p, map[int]int{0: 4})
	})

	// From segment 3 the ring's next three segments lie in the far
	// cluster; the default budget probes the cluster mates instead.
	budget := confCase{segs: 8, topo: topo, pol: policy.Set{Place: policy.GiftToNearestEmptiest{Model: costly}},
		fill: map[int]int{0: 4, 1: 4, 2: 4, 3: 4}, actor: 3}
	r.run(t, "nearest-budget", budget, func(t *testing.T, p confPool) {
		for i := range 8 {
			p.put(3, i)
		}
		for s := range recorded(p, 3, trace.DirectPlace) {
			if s >= 4 {
				t.Errorf("an add crossed to segment %d outside the probe budget", s)
			}
		}
		checkSegLens(t, p, map[int]int{4: 0, 5: 0, 6: 0, 7: 0})
		if remote, cross := p.probes(); remote == 0 || cross != 0 {
			t.Errorf("remote/cross probes = %d/%d, want some remote and no cross", remote, cross)
		}
	})

	fair := confCase{segs: 8, pol: policy.Set{Place: policy.TenantFair{Map: policy.EvenTenants(8, 2)}},
		fill: map[int]int{0: 2, 1: 2, 2: 2, 3: 2, 5: 1}, actor: 2}
	r.run(t, "tenant-fair", fair, func(t *testing.T, p confPool) {
		// Tenant 1's segments 4, 6 and 7 stay the emptiest, and the ring
		// from 2 reaches 4 and 5 within the probe budget, but every add
		// spreads over tenant 0's own.
		for i := range 8 {
			p.put(2, i)
		}
		for s := range recorded(p, 2, trace.DirectPlace) {
			if s >= 4 {
				t.Errorf("an add left the tenant for segment %d", s)
			}
		}
		checkSegLens(t, p, map[int]int{0: 4, 1: 4, 2: 4, 3: 4, 4: 0, 5: 1, 6: 0, 7: 0})
		// Draining the pool steals the one element in foreign segment 5.
		for i := range 17 {
			if _, ok := p.get(2); !ok {
				t.Errorf("Get %d failed with elements pooled", i)
				return
			}
		}
		if moved := recorded(p, 2, trace.ReserveTransfer); moved[5] != 1 {
			t.Errorf("steals moved %v, want one element from segment 5", moved)
		}
		if p.stats != nil {
			if st := p.stats(2); st.ForeignSteals != 1 || st.TenantSteals <= st.ForeignSteals {
				t.Errorf("foreign/classified steals = %d/%d, want 1 and more", st.ForeignSteals, st.TenantSteals)
			}
		}
	})
}

// controllersScript: adaptive controllers tune from every substrate's
// feedback — a pool-wide one rises under sustained stealing, and
// per-handle ones diverge between a handle that always steals and one
// that always removes locally.
func controllersScript(t *testing.T, r confRow) {
	set, err := policy.Named("per-handle")
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, "per-handle", confCase{segs: 3, pol: set}, func(t *testing.T, p confPool) {
		// Handle 1 removes what it just put; handle 0 is never fed, so
		// its every remove steals from handle 2's segment.
		for i := 0; i < 400; i++ {
			p.put(1, i)
			if _, ok := p.get(1); !ok {
				t.Errorf("local Get %d failed", i)
				return
			}
			p.put(2, i)
			if _, ok := p.get(0); !ok {
				t.Errorf("thief Get %d failed", i)
				return
			}
		}
		ph := set.Control.(*policy.PerHandle)
		thief, local, producer := ph.Handle(0), ph.Handle(1), ph.Handle(2)
		if tf, lf := thief.StealFraction(), local.StealFraction(); tf <= 0.5 || lf >= 0.5 {
			t.Errorf("per-handle fractions thief=%v local=%v, want >0.5 and <0.5", tf, lf)
		}
		if producer == nil || producer == thief || producer == local {
			t.Error("two handles share one controller under the per-handle set")
		}
		if p.controller != nil {
			for h, want := range []policy.Controller{thief, local, producer} {
				if got := p.controller(h); got != want {
					t.Errorf("handle %d consults %p, want its spawned controller %p", h, got, want)
				}
			}
		}
		if p.batchSize != nil {
			if b := p.batchSize(0, 4); b < 4 {
				t.Errorf("thief BatchSize(4) = %d, want >= 4", b)
			}
		}
	})

	adaptive, err := policy.Named("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, "adaptive", confCase{segs: 2, pol: adaptive}, func(t *testing.T, p confPool) {
		// Every remove steals a deposit made remotely just before it:
		// maximal steal pressure on the one controller.
		for i := 0; i < 200; i++ {
			p.put(1, i)
			if _, ok := p.get(0); !ok {
				t.Errorf("Get %d failed with elements available", i)
				return
			}
		}
		if f := adaptive.Control.Spawn(0).StealFraction(); f <= 0.5 {
			t.Errorf("controller fraction = %v after sustained steal pressure, want > 0.5", f)
		}
	})
}

// raceScript: producers in one cluster race consumers in the other under
// the cluster-first order and per-handle controllers, each consulted as
// an escalation tuner while feedback streams in. Elements are conserved
// and the probe accounting stays consistent; the race detector guards
// the escalation hook and the per-handle counters.
func raceScript(t *testing.T, r confRow) {
	const segs, perWorker = 8, 250
	topo := numa.Clusters{Size: 4}
	set, err := policy.Named("per-handle")
	if err != nil {
		t.Fatal(err)
	}
	set.Order = policy.HierarchicalOrder{Topo: topo}
	r.run(t, "hierarchy", confCase{segs: segs, pol: set, topo: topo}, func(t *testing.T, p confPool) {
		var wg sync.WaitGroup
		var consumed [segs / 2]int
		for w := 0; w < segs/2; w++ {
			wg.Add(2)
			go func() { // producers live in cluster {0..3}
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					p.put(w, i)
				}
			}()
			go func() { // consumers in cluster {4..7}: every steal crosses
				defer wg.Done()
				for i := 0; i < perWorker/2; i++ {
					if _, ok := p.get(4 + w); ok {
						consumed[w]++
					}
				}
			}()
		}
		wg.Wait()
		taken := 0
		for _, n := range consumed {
			taken += n
		}
		if total, want := p.length()+taken, segs/2*perWorker; total != want {
			t.Errorf("conservation violated: %d pooled + consumed, want %d", total, want)
		}
		remote, cross := p.probes()
		if remote == 0 {
			t.Error("no remote probes recorded under contention")
		}
		if cross > remote {
			t.Errorf("cross probes %d exceed remote probes %d", cross, remote)
		}
		if taken > 0 && cross == 0 {
			t.Error("consumers stole across clusters yet no cross probe was recorded")
		}
	})
}

// churnPhases each start from a fresh pool, where handle 1 is the actor
// and segment 0 the one that departs with elements. Every substrate
// takes the transitions they check from engine.Membership.
var churnPhases = []struct {
	name string
	// multi phases operate a killed handle other than the actor: a
	// killed processor of an actorOnly row does not operate.
	multi bool
	body  func(*testing.T, confPool)
}{
	{"drain", false, churnDrain},
	{"redirect", true, churnRedirect},
	{"last-alive", false, churnLastAlive},
	{"killed-handle", false, churnKilledHandle},
	{"steal-only", false, churnStealOnly},
}

// churnScript runs every churn phase under the linear and the tree
// search.
func churnScript(t *testing.T, r confRow) {
	for _, kind := range []search.Kind{search.Linear, search.Tree} {
		c := confCase{segs: confSegs, pol: policy.Set{Order: kind}, fill: map[int]int{0: confFill}, actor: 1}
		t.Run(kind.String(), func(t *testing.T) {
			for _, ph := range churnPhases {
				if ph.multi && r.actorOnly {
					continue
				}
				r.run(t, ph.name, c, ph.body)
			}
		})
	}
}

// churnDrain: a drain kill clears alive and victim, bumps the epoch
// (leave and relocation), conserves Len and empties the departed
// segment.
func churnDrain(t *testing.T, p confPool) {
	epoch := epochOf(p)
	if !p.kill(0, true) {
		t.Error("drain kill of 0 refused")
		return
	}
	if p.alive(0) || p.victim != nil && p.victim(0) {
		t.Error("drain-killed segment 0 still alive or a victim")
	}
	checkEpochMoved(t, p, "drain kill", epoch, 2)
	if n := p.length(); n != confFill {
		t.Errorf("drain kill lost elements: Len = %d, want %d", n, confFill)
	}
	if p.segLen(0) != 0 {
		t.Errorf("drained segment 0 still holds %d elements", p.segLen(0))
	}
	if !takeAll(t, p, "after drain kill", confFill) {
		return
	}
	checkTransitions(t, p, 1, 0, 0)
}

// churnRedirect: deposits by the departed handle land on a victim,
// where the survivors find them.
func churnRedirect(t *testing.T, p confPool) {
	if !p.kill(0, true) {
		t.Error("drain kill of 0 refused")
		return
	}
	if !takeAll(t, p, "after drain kill", confFill) {
		return
	}
	p.put(0, 99)
	p.putAll(0, []int{100, 101})
	if p.segLen(0) != 0 {
		t.Errorf("deposits landed in the departed segment: it holds %d", p.segLen(0))
	}
	takeAll(t, p, "redirected deposits", 3)
}

// churnLastAlive: a dead member and the last live member refuse a kill;
// a revive re-admits once, and after it the refused kill goes through.
func churnLastAlive(t *testing.T, p confPool) {
	if !p.kill(0, true) {
		t.Error("drain kill of 0 refused")
		return
	}
	if !takeAll(t, p, "after drain kill", confFill) {
		return
	}
	if p.kill(0, true) {
		t.Error("killing a dead member must be refused")
	}
	if !p.kill(2, true) || !p.kill(3, false) {
		t.Error("kills of 2 and 3 refused")
		return
	}
	if p.kill(1, false) || p.kill(1, true) {
		t.Error("killing the last live member must be refused")
	}
	if !p.alive(1) {
		t.Error("refused kill still removed the member")
	}
	checkRevive(t, p, 0)
	if !p.kill(1, false) {
		t.Error("kill after a revive restored a second live member refused")
	}
	// Drain kills of 0 and 2, the first relocating every element.
	checkTransitions(t, p, 2, 2, 1)
}

// churnKilledHandle: a killed handle's remove fails even with elements
// pooled, and a revived handle operates normally.
func churnKilledHandle(t *testing.T, p confPool) {
	if !p.kill(1, false) {
		t.Error("steal-only kill of 1 refused")
		return
	}
	if v, ok := p.get(1); ok {
		t.Errorf("killed handle's Get took %d", v)
	}
	if n := p.length(); n != confFill {
		t.Errorf("killed handle's Get left Len = %d, want %d", n, confFill)
	}
	checkRevive(t, p, 1)
	p.put(1, 9)
	if v, ok := p.get(1); !ok || v != 9 {
		t.Errorf("revived handle Get = (%d, %v), want (9, true)", v, ok)
	}
	if !takeAll(t, p, "after revive", confFill) {
		return
	}
	checkTransitions(t, p, 0, 1, 1)
}

// churnStealOnly: a steal-only kill keeps the victim bit and the
// elements in place; they drain through the survivor's steals.
func churnStealOnly(t *testing.T, p confPool) {
	epoch := epochOf(p)
	if !p.kill(0, false) {
		t.Error("steal-only kill of 0 refused")
		return
	}
	if p.alive(0) || p.victim != nil && !p.victim(0) {
		t.Error("steal-only kill must clear alive and keep the victim bit")
	}
	checkEpochMoved(t, p, "steal-only kill", epoch, 1)
	if p.segLen(0) != confFill {
		t.Errorf("steal-only segment holds %d elements, want %d in place", p.segLen(0), confFill)
	}
	if !takeAll(t, p, "after steal-only kill", confFill) {
		return
	}
	checkTransitions(t, p, 0, 1, 0)
}

// takeAll takes n elements through the actor, handle 1, and checks that
// the pool is then empty.
func takeAll(t *testing.T, p confPool, what string, n int) bool {
	for i := 0; i < n; i++ {
		if _, ok := p.get(1); !ok {
			t.Errorf("%s: element %d unreachable", what, i)
			return false
		}
	}
	if n := p.length(); n != 0 {
		t.Errorf("%s: Len = %d after taking every element, want 0", what, n)
		return false
	}
	return true
}

// epochOf returns the pool's epoch, or 0 on a substrate without one.
func epochOf(p confPool) uint64 {
	if p.epoch == nil {
		return 0
	}
	return p.epoch()
}

// checkEpochMoved checks that the epoch moved from by; it holds
// trivially on a substrate without an epoch.
func checkEpochMoved(t *testing.T, p confPool, what string, from, by uint64) {
	if p.epoch == nil {
		return
	}
	if got := p.epoch(); got != from+by {
		t.Errorf("%s: epoch %d→%d, want +%d", what, from, got, by)
	}
}

// checkRevive revives s, checks that a second revive reports false and
// that s is fully re-admitted.
func checkRevive(t *testing.T, p confPool, s int) {
	if !p.revive(s) {
		t.Errorf("revive of %d failed", s)
	}
	if p.revive(s) {
		t.Errorf("second revive of %d must report false", s)
	}
	if !p.alive(s) || p.victim != nil && !p.victim(s) {
		t.Errorf("revived member %d not fully re-admitted", s)
	}
}

// checkTransitions checks the recorded member_leave, member_join and
// epoch_bump events: one bump per drain kill, the first relocating
// every prefilled element.
func checkTransitions(t *testing.T, p confPool, wantDrains, wantStealOnly, wantJoins int) {
	var drains, stealOnly, joins int
	var bumps []int32
	for _, tl := range p.timelines() {
		for _, ev := range tl.Events {
			switch ev.Kind {
			case trace.MemberLeave:
				if ev.Arg2 == 1 {
					drains++
				} else {
					stealOnly++
				}
			case trace.MemberJoin:
				joins++
			case trace.EpochBump:
				bumps = append(bumps, ev.Arg2)
			}
		}
	}
	if drains != wantDrains || stealOnly != wantStealOnly || joins != wantJoins {
		t.Errorf("recorded %d drain leaves, %d steal-only leaves, %d joins; want %d, %d, %d",
			drains, stealOnly, joins, wantDrains, wantStealOnly, wantJoins)
	}
	if len(bumps) != drains || len(bumps) > 0 && bumps[0] != confFill {
		t.Errorf("epoch_bump moved counts %v, want one per drain kill, the first %d", bumps, confFill)
	}
}
