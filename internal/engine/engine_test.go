package engine

import (
	"slices"
	"testing"

	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/trace"
)

// fakeSub is a scripted in-memory substrate: segment sizes in a slice,
// steal-half semantics, and call accounting for the Enter/Exit contract.
type fakeSub struct {
	segs     []int
	self     int
	reserved int // elements reserved for in-flight operations
	enters   int
	exits    int
	probes   []int
	stopped  bool
}

func (f *fakeSub) Probe(s, want int) int {
	f.probes = append(f.probes, s)
	n := f.segs[s]
	if n == 0 {
		return 0
	}
	if s == f.self {
		f.segs[s]--
		f.reserved++
		return n
	}
	take := (n + 1) / 2
	f.segs[s] -= take
	f.segs[f.self] += take - 1
	f.reserved++
	return take
}

func (f *fakeSub) Stopped() bool { return f.stopped }
func (f *fakeSub) Enter(int)     { f.enters++ }
func (f *fakeSub) Exit()         { f.exits++ }

func newFakeEngine(t *testing.T, segs []int, self int, cfg Config, term Termination) (*Engine, *fakeSub) {
	t.Helper()
	sub := &fakeSub{segs: segs, self: self}
	cfg.Self = self
	cfg.Segments = len(segs)
	cfg.Policies = cfg.Policies.WithDefaults()
	return New(cfg, sub, term), sub
}

// TestSearchFindsAndBrackets checks a successful search: the linear order
// walks the ring to the first non-empty victim, Enter/Exit bracket the
// run exactly once, and the fruitless prefix is probed in order.
func TestSearchFindsAndBrackets(t *testing.T) {
	e, sub := newFakeEngine(t, []int{0, 0, 0, 8}, 0, Config{}, NewBounded(8))
	res := e.Search(1)
	if res.Got != 4 || res.FoundAt != 3 || res.Examined != 4 {
		t.Fatalf("Search = %+v, want Got=4 FoundAt=3 Examined=4", res)
	}
	if sub.enters != 1 || sub.exits != 1 {
		t.Fatalf("Enter/Exit = %d/%d, want 1/1", sub.enters, sub.exits)
	}
	want := []int{0, 1, 2, 3}
	for i, s := range want {
		if sub.probes[i] != s {
			t.Fatalf("probe order %v, want %v", sub.probes, want)
		}
	}
}

// TestBoundedBudgetExhausts checks the keyed pool's rule: an empty world
// is probed exactly budget times and then the search reports an abort.
func TestBoundedBudgetExhausts(t *testing.T) {
	e, sub := newFakeEngine(t, make([]int, 4), 0, Config{}, NewBounded(8))
	res := e.Search(1)
	if res.Got != 0 || res.Examined != 8 {
		t.Fatalf("Search = %+v, want abort after exactly 8 probes", res)
	}
	if sub.exits != 1 {
		t.Fatal("Exit not called on an aborted search")
	}
}

// TestStoppedSubstrateAborts checks substrate hard stops end the search
// before any probe.
func TestStoppedSubstrateAborts(t *testing.T) {
	e, sub := newFakeEngine(t, []int{0, 5}, 0, Config{}, NewBounded(8))
	sub.stopped = true
	res := e.Search(1)
	if res.Got != 0 || res.Examined != 0 {
		t.Fatalf("Search = %+v, want an immediate abort with no probes", res)
	}
}

// fakeCoverage is a scripted CoverageState.
type fakeCoverage struct {
	version   uint64
	epoch     uint64
	searching bool
	gifts     bool
	moving    bool
}

func (f *fakeCoverage) Version() uint64         { return f.version }
func (f *fakeCoverage) Epoch() uint64           { return f.epoch }
func (f *fakeCoverage) AllSearching() bool      { return f.searching }
func (f *fakeCoverage) GiftsInFlight() bool     { return f.gifts }
func (f *fakeCoverage) TransfersInFlight() bool { return f.moving }

// TestCoverageRule exercises the exact rule directly: no abort until
// every segment is covered; gifts in flight and version bumps hold off or
// re-arm the certificate; all-searching certifies it.
func TestCoverageRule(t *testing.T) {
	st := &fakeCoverage{}
	c := NewCoverage(3, st)
	c.Begin(1)
	c.SawEmpty(0)
	c.SawEmpty(1)
	if c.Aborted() {
		t.Fatal("aborted before covering every segment")
	}
	c.SawEmpty(2)
	if !c.Aborted() {
		t.Fatal("covered pool with stable version must certify emptiness")
	}
	// A version bump re-arms the rule instead of aborting.
	c.Begin(1)
	c.SawEmpty(0)
	c.SawEmpty(1)
	c.SawEmpty(2)
	st.version++
	if c.Aborted() {
		t.Fatal("aborted on a stale certificate after a version bump")
	}
	if c.Aborted() {
		t.Fatal("re-armed rule aborted without fresh coverage")
	}
	// Gifts in flight outrank even the all-searching observation.
	c.SawEmpty(0)
	c.SawEmpty(1)
	c.SawEmpty(2)
	st.searching = true
	st.gifts = true
	if c.Aborted() {
		t.Fatal("certified emptiness over an in-flight gift")
	}
	st.gifts = false
	// A steal mid-transfer (surplus in a thief's private buffer, not yet
	// deposited) equally holds off the certificate, even over the
	// all-searching observation — the thief is one of the lookers.
	st.moving = true
	if c.Aborted() {
		t.Fatal("certified emptiness over an in-flight steal transfer")
	}
	st.moving = false
	if !c.Aborted() {
		t.Fatal("all-searching covered pool must abort")
	}
	// Progress resets coverage entirely.
	c.Begin(1)
	c.SawEmpty(0)
	c.SawEmpty(1)
	c.SawProgress()
	c.SawEmpty(2)
	st.searching = false
	if c.Aborted() {
		t.Fatal("aborted with only one segment covered since progress")
	}
}

// TestCoverageEpochInvalidation pins the membership-epoch clause: an
// epoch bump discards all accumulated coverage evidence — even over a
// fully-covered pool with all processes searching — and the check fires
// before the coverage short-circuit, so evidence collected while
// coverage was still partial is discarded too (a drain-kill can move
// elements into segments the search already saw empty).
func TestCoverageEpochInvalidation(t *testing.T) {
	st := &fakeCoverage{searching: true}
	c := NewCoverage(3, st)

	// Bump with full coverage: the certificate must not survive.
	c.Begin(1)
	c.SawEmpty(0)
	c.SawEmpty(1)
	c.SawEmpty(2)
	st.epoch++
	if c.Aborted() {
		t.Fatal("certified emptiness across a membership epoch bump")
	}
	// The rule re-armed against the new epoch: fresh full coverage with a
	// stable epoch certifies again.
	c.SawEmpty(0)
	c.SawEmpty(1)
	c.SawEmpty(2)
	if !c.Aborted() {
		t.Fatal("re-armed rule refused fresh coverage under a stable epoch")
	}

	// Bump mid-search with partial coverage: the already-probed segments
	// must be forgotten, so completing the lap with only the previously
	// unprobed segment must NOT certify.
	c.Begin(1)
	c.SawEmpty(0)
	c.SawEmpty(1)
	st.epoch++
	if c.Aborted() {
		t.Fatal("aborted with partial coverage across an epoch bump")
	}
	c.SawEmpty(2)
	if c.Aborted() {
		t.Fatal("pre-bump probes survived the epoch invalidation")
	}
	c.SawEmpty(0)
	c.SawEmpty(1)
	if !c.Aborted() {
		t.Fatal("full post-bump coverage must certify emptiness")
	}

	// The epoch re-arm also swallows a concurrent version bump: both
	// snapshots refresh together, so a version moved during the same
	// churn does not demand a second extra lap.
	c.Begin(1)
	st.epoch++
	st.version++
	if c.Aborted() {
		t.Fatal("aborted immediately after churn")
	}
	c.SawEmpty(0)
	c.SawEmpty(1)
	c.SawEmpty(2)
	if !c.Aborted() {
		t.Fatal("version bump swallowed by the epoch re-arm still blocked the certificate")
	}
}

// fakeLaps is a scripted LapsState.
type fakeLaps struct {
	searching bool
	latched   bool
}

func (f *fakeLaps) AllSearching() bool { return f.searching }
func (f *fakeLaps) LatchEmpty()        { f.latched = true }

// TestLapsRule checks the simulator's rule: all-searching alone is not
// enough — a full lap of consecutive fruitless probes must also have been
// invested — and certifying emptiness latches the pool-wide abort.
func TestLapsRule(t *testing.T) {
	st := &fakeLaps{searching: true}
	l := NewLaps(3, st)
	l.Begin(1)
	l.SawEmpty(0)
	l.SawEmpty(1)
	if l.Aborted() {
		t.Fatal("aborted before a full fruitless lap")
	}
	l.SawEmpty(2)
	if !l.Aborted() {
		t.Fatal("full lap while all searching must abort")
	}
	if !st.latched {
		t.Fatal("certifying emptiness must latch the pool-wide abort")
	}
	// Progress resets the lap count.
	st.latched = false
	l.Begin(1)
	l.SawEmpty(0)
	l.SawEmpty(1)
	l.SawProgress()
	l.SawEmpty(2)
	if l.Aborted() {
		t.Fatal("aborted without a full consecutive lap after progress")
	}
}

// TestNoteProbeClassification checks that the engine classifies each
// placement size probe after the substrate's SizeProbe read the size,
// against the precomputed near/cross masks, and the stats gate.
func TestNoteProbeClassification(t *testing.T) {
	var stats metrics.PoolStats
	probe := func(s int) int {
		if stats.RemoteProbes != int64(max(s-1, 0)) {
			t.Errorf("probe of %d: %d probes classified before the size read", s, stats.RemoteProbes)
		}
		return 0
	}
	// 0 is self: not counted; 1 is in the same cluster: near; 2 and 3
	// are across the boundary: cross.
	place := policy.Set{Place: clampPlace{cand: []int{0, 1, 2, 3}}}
	e, _ := newFakeEngine(t, make([]int, 4), 0, Config{
		Policies:  place,
		Topology:  numa.Clusters{Size: 2},
		Stats:     &stats,
		SizeProbe: probe,
	}, NewBounded(4))
	e.DirectTarget(1) // probes every candidate once
	if stats.RemoteProbes != 3 || stats.CrossProbes != 2 {
		t.Fatalf("remote/cross = %d/%d, want 3/2", stats.RemoteProbes, stats.CrossProbes)
	}
	// Nil stats disables the accounting entirely (CollectStats=false).
	e2, _ := newFakeEngine(t, make([]int, 4), 0, Config{
		Policies:  place,
		Topology:  numa.Clusters{Size: 2},
		SizeProbe: func(int) int { return 0 },
	}, NewBounded(4))
	e2.DirectTarget(1) // must not panic or record
}

// clampPlace is a placement whose plan scripts its candidates and costs.
type clampPlace struct {
	cand []int
	cost []int64
}

func (clampPlace) Name() string { return "clamp" }
func (c clampPlace) Plan(int, int) policy.PlacePlan {
	return policy.PlacePlan{Candidates: c.cand, Cost: c.cost}
}

// TestDirectTarget checks plan consultation and that a plan naming a
// segment the pool lacks, or a candidate without a cost, keeps every add
// local without probing.
func TestDirectTarget(t *testing.T) {
	probed := 0
	mk := func(c clampPlace) *Engine {
		sub := &fakeSub{segs: make([]int, 4), self: 1}
		return New(Config{
			Self: 1, Segments: 4,
			Policies:  policy.Set{Place: c}.WithDefaults(),
			SizeProbe: func(int) int { probed++; return 0 },
		}, sub, NewBounded(4))
	}
	if got := mk(clampPlace{cand: []int{3}}).DirectTarget(1); got != 3 {
		t.Fatalf("DirectTarget = %d, want the plan's 3", got)
	}
	if got := mk(clampPlace{cand: []int{2, 0}, cost: []int64{5, 1}}).DirectTarget(1); got != 0 {
		t.Fatalf("DirectTarget = %d, want the cheaper candidate 0", got)
	}
	if got := mk(clampPlace{cand: []int{3, 7}}).DirectTarget(1); got != 1 {
		t.Fatalf("out-of-range candidate: DirectTarget = %d, want self 1", got)
	}
	if got := mk(clampPlace{cand: []int{-2}}).DirectTarget(1); got != 1 {
		t.Fatalf("negative candidate: DirectTarget = %d, want self 1", got)
	}
	if got := mk(clampPlace{cand: []int{2, 3}, cost: []int64{0}}).DirectTarget(1); got != 1 {
		t.Fatalf("uncosted candidate: DirectTarget = %d, want self 1", got)
	}
	if got := mk(clampPlace{cand: []int{}}).DirectTarget(1); got != 1 {
		t.Fatalf("empty candidates: DirectTarget = %d, want self 1", got)
	}
	if probed != 3 {
		t.Fatalf("size probes = %d, want one per valid candidate", probed)
	}
	// Without candidates every add stays local, no probes.
	e, _ := newFakeEngine(t, make([]int, 4), 2, Config{}, NewBounded(4))
	if got := e.DirectTarget(5); got != 2 {
		t.Fatalf("no-candidate DirectTarget = %d, want self", got)
	}
}

// TestControlAwareWiring checks the wiring that replaced the deleted
// ControlAware order interface: the engine resolves each handle's
// controller before it plans the search, whose order is handed the
// controller's EscalationThreshold. Two handles get distinct spawned
// controllers, the first's is also its steal amount, and a hierarchical
// order plans its escalating searcher and its cluster-first rank.
func TestControlAwareWiring(t *testing.T) {
	pol := policy.Set{
		Control: policy.NewPerHandle(),
		Order:   policy.HierarchicalOrder{Topo: numa.Clusters{Size: 2}},
	}.WithDefaults()
	mk := func(self int) *Engine {
		sub := &fakeSub{segs: make([]int, 4), self: self}
		return New(Config{Self: self, Segments: 4, Policies: pol}, sub, NewBounded(4))
	}
	e0, e1 := mk(0), mk(1)
	if e0.Controller() == nil || e0.Controller() == e1.Controller() {
		t.Fatal("per-handle set must spawn a distinct controller per engine")
	}
	if e0.StealAmount() == nil || e0.StealAmount() != policy.StealAmount(e0.Controller()) {
		t.Fatal("spawned controller must also become the handle's steal amount")
	}
	if plan := e0.Plan(); plan.Searcher.Kind() != search.Hierarchical || plan.Rank == nil || plan.Tree {
		t.Fatalf("plan = %v searcher, rank %v, tree %v; want hierarchical, ranked, no tree",
			plan.Searcher.Kind(), plan.Rank, plan.Tree)
	}
}

// TestObserveTracesOnlySearchOutcomes checks that Finish builds each
// remove's feedback from the last search and the remove's haul, and
// records one feedback event per stolen, aborted or probing outcome and
// none for a gift taken before any probe, nor for a local hit fed through
// ObserveLocal, while the controller still folds in every outcome: one
// Adaptive window closes only because the local hits count toward it, and
// it lands where a controller fed the same stream directly lands.
func TestObserveTracesOnlySearchOutcomes(t *testing.T) {
	ctl := policy.NewAdaptive()
	tr := trace.NewRecorder(0, 64, nil)
	e, _ := newFakeEngine(t, make([]int, 4), 0, Config{Policies: policy.Set{Control: ctl}, Tracer: tr}, NewBounded(4))

	var stream []policy.Feedback
	for i := 0; i < 8; i++ {
		stream = append(stream, policy.Feedback{Got: 1}) // local hit
	}
	stream = append(stream, policy.Feedback{Got: 2}) // gift before any probe
	for i := 0; i < 5; i++ {
		stream = append(stream, policy.Feedback{Stole: true, Examined: 3, Got: 4})
	}
	stream = append(stream,
		policy.Feedback{Aborted: true, Examined: 4},
		policy.Feedback{Examined: 2, Got: 1}, // gift found mid-search
	)
	ref := policy.NewAdaptive()
	for _, fb := range stream {
		if fb == (policy.Feedback{Got: 1}) {
			e.ObserveLocal(1)
		} else {
			// The search's haul is the remove's unless a gift served it.
			e.res = search.Result{Examined: fb.Examined}
			if fb.Stole {
				e.res.Got = fb.Got
			}
			e.Finish(fb.Got)
		}
		ref.Observe(fb)
	}

	type ev struct{ got, examined int32 }
	var got []ev
	for _, x := range tr.Events() {
		if x.Kind != trace.Feedback {
			t.Fatalf("Observe recorded %v, want only feedback", x.Kind)
		}
		got = append(got, ev{x.Arg1, x.Arg2})
	}
	want := []ev{{4, 3}, {4, 3}, {4, 3}, {4, 3}, {4, 3}, {-1, 4}, {1, 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("feedback events %v, want %v", got, want)
	}

	// 16 outcomes close one window at a steal rate of 5/16, which raises
	// the fraction from the starting one half; the 7 search outcomes
	// alone would not close it.
	if f := ctl.StealFraction(); f == 0.5 || f != ref.StealFraction() {
		t.Fatalf("controller fraction %v, want %v (moved from 0.5)", f, ref.StealFraction())
	}
	if b, rb := ctl.BatchSize(8), ref.BatchSize(8); b != rb {
		t.Fatalf("controller batch %d, want %d", b, rb)
	}
}
