// Package engine implements the paper's parameterized search-and-steal
// protocol exactly once, shared by every execution substrate in the repo.
//
// The paper's contribution is a single protocol — search remote segments
// in a policy-chosen order, steal a policy-chosen share of the first
// non-empty one, feed the outcome back to an online controller, and abort
// when emptiness is certified — evaluated across substrates. Before this
// package existed the repo implemented that loop three times: the real
// pool (internal/core), the virtual-time simulator (internal/sim), and
// the keyed pool's ring sweep (internal/keyed). Every policy feature paid
// a triple-wiring tax. Now each substrate implements the small Substrate
// interface (probe one segment, reserve/transfer elements, charge its own
// costs) and an Engine per handle owns everything the substrates used to
// duplicate:
//
//   - policy resolution: the handle's Controller and StealAmount via
//     policy.Set.ForHandle, and its search.Plan from the VictimOrder,
//     handed the controller's EscalationThreshold so that escalating
//     orders (HierarchicalOrder) tune from the very controller their
//     searches feed;
//   - the search loop: bracket the searcher run with the substrate's
//     Enter/Exit bookkeeping (lookers counters, hungry flags, shared-
//     counter charges) and adapt the Substrate to search.World;
//   - termination: the emptiness/livelock rules as pluggable Termination
//     values — Coverage (core's exact version-stamped rule), Laps (the
//     simulator's consecutive-fruitless-lap rule), and Bounded (the keyed
//     pool's fixed sweep budget);
//   - probe classification: every remote probe is recorded near or
//     cross-cluster against a numa.Topology, with the hop distances
//     precomputed per handle so the inner probe loop performs an array
//     load instead of an interface call;
//   - placement: the handle's policy.PlacePlan from the Placement, whose
//     candidates DirectTarget scores with a size-probe closure the
//     substrate supplies once at construction, so the Put hot path does
//     not allocate a closure per call, and whose tenant mask classifies
//     steals as same- or cross-tenant;
//   - feedback: Observe/BatchSize/Controller plumbing to the handle's
//     controller.
//
// The Engine is deliberately not generic: elements never pass through it.
// Reserving and transferring typed elements is the substrate's job
// (behind Probe), which is what keeps each substrate's implementation to
// roughly a hundred lines of locking or cost-charging glue.
package engine

import (
	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/trace"
)

// Substrate is one handle's typed view of its pool: the operations the
// search-steal protocol needs but whose implementation (mutexes, virtual
// time, key buckets) differs per substrate. A Substrate is owned by one
// handle and, like the handle, is not safe for concurrent use.
type Substrate interface {
	// Probe examines segment s on behalf of an operation wanting up to
	// want elements (the StealAmount policy's appetite input). If s holds
	// elements the substrate transfers the policy-chosen share toward the
	// handle — reserving one element for the in-flight operation — and
	// returns the number obtained; it returns 0 if s was empty. Probing
	// the handle's own segment reports the local size and reserves one
	// element when available. The substrate charges its own access costs
	// (delays or virtual time) per probe.
	Probe(s, want int) int
	// Stopped reports substrate-specific hard stops, checked before every
	// probe: pool or handle closed, an external drain, or a directed-add
	// gift landing in the handle's mailbox.
	Stopped() bool
	// Enter brackets the start of one search: bump the pool's lookers
	// count, raise the hungry flag, charge the shared-counter access —
	// whatever the substrate's livelock accounting requires.
	Enter(want int)
	// Exit undoes Enter at the end of the same search.
	Exit()
}

// TreeSubstrate extends Substrate with the superimposed round-counter
// tree required by the paper's tree search algorithm. Substrates that can
// run search.Tree implement it; the keyed pool does not.
type TreeSubstrate interface {
	Substrate
	// NumLeaves returns the tree leaf count (search.NumLeavesFor).
	NumLeaves() int
	// RoundOf returns node n's round counter, charging a node access.
	RoundOf(n int) uint64
	// MaxRound raises node n's counter to r if greater.
	MaxRound(n int, r uint64)
}

// Config assembles one handle's engine.
type Config struct {
	// Self is the handle's segment index; Segments the pool size.
	Self, Segments int
	// Policies is the pool's resolved policy set (WithDefaults applied).
	// The engine resolves the handle's controller and steal amount from
	// it (Set.ForHandle) and plans the search from its Order.
	Policies policy.Set
	// Seed drives randomized search orders. Pools pass a per-handle
	// sub-seed (rng.SubSeed), not the pool seed.
	Seed uint64
	// Topology classifies remote probes as near (hop distance 1) or
	// cross-cluster (> 1). Nil means uniform: every remote probe is near.
	Topology numa.Topology
	// Stats receives the probe classification (RecordProbe). Nil disables
	// probe accounting entirely — the real pool's CollectStats=false mode.
	Stats *metrics.PoolStats
	// Searcher, when non-nil, overrides the planned searcher. The keyed
	// pool supplies its ranked or ring sweep here; everyone else leaves it
	// nil and gets the Policies.Order plan's.
	Searcher search.Searcher
	// SizeProbe reports a segment's current size for the placement plan's
	// candidates, charging one probe access. Supplied once at construction
	// so the add hot path does not allocate a closure per call. Required
	// only when the plan has candidates.
	SizeProbe func(s int) int
	// Tracer, when non-nil, receives the handle's flight-recorder events:
	// the engine emits the protocol edges (searches, probe classification,
	// ring escalation, termination verdicts, directed placements,
	// controller feedback) and the substrate adds only its reserve/
	// transfer and gift edges. Nil disables tracing; every emission site
	// is a nil check, so the disabled path stays 0 allocs/op.
	Tracer *trace.Recorder
	// Members, when non-nil, is the pool's dynamic membership: searches
	// skip non-victim segments (counting them as seen-empty, which the
	// deposit redirects keep true) and directed placements are clamped to
	// victim segments so no element lands where searches no longer look.
	// Nil means fixed membership — the paper's model — with zero overhead.
	Members *Membership
}

// Engine drives the search-steal protocol for one handle. Create with
// New; like the handle it serves, an Engine may be used by only one
// goroutine at a time.
type Engine struct {
	self     int
	segments int
	ctl      policy.Controller
	steal    policy.StealAmount
	plan     search.Plan
	place    *policy.PlacePlan       // the placement plan, nil when it has no candidates
	gift     func(n, hungry int) int // the plan's mailbox split law
	sizeFn   func(s int) int
	stats    *metrics.PoolStats
	tr       *trace.Recorder
	members  *Membership
	cross    []bool  // cross[s]: a probe of s leaves the cluster (nil = no topology)
	hops     []int32 // hops[s]: topology hop distance self→s (nil = no topology)
	foreign  []bool  // foreign[s]: segment s belongs to another tenant (nil = no partition)
	w        world
}

// New builds a handle's engine: resolve the controller and steal amount
// (per-handle sets spawn their instance here), plan the search with the
// controller's escalation hook and the placement, precompute the
// hop-distance classification, and bind the substrate and termination
// rule. An order that plans no searcher leaves Plan().Searcher nil for
// the pool to reject.
func New(cfg Config, sub Substrate, term Termination) *Engine {
	ctl, steal := cfg.Policies.ForHandle(cfg.Self)
	plan := search.Plan{Searcher: cfg.Searcher}
	if plan.Searcher == nil {
		var escalate func(base int) int
		if ctl != nil {
			escalate = ctl.EscalationThreshold
		}
		plan = cfg.Policies.Order.Plan(cfg.Self, cfg.Segments, cfg.Seed, escalate)
	}
	place := cfg.Policies.Place.Plan(cfg.Self, cfg.Segments)
	// A custom placement's plan is input from outside: no candidate, one
	// the pool lacks, or one without a cost keeps every add local instead
	// of probing out of range.
	ok := len(place.Candidates) > 0 && (place.Cost == nil || len(place.Cost) >= len(place.Candidates))
	for _, s := range place.Candidates {
		ok = ok && s >= 0 && s < cfg.Segments
	}
	e := &Engine{
		self:     cfg.Self,
		segments: cfg.Segments,
		ctl:      ctl,
		steal:    steal,
		plan:     plan,
		gift:     place.Gift,
		foreign:  place.Foreign,
		sizeFn:   cfg.SizeProbe,
		stats:    cfg.Stats,
		tr:       cfg.Tracer,
		members:  cfg.Members,
	}
	if ok {
		direct := place // a copy, so only a kept plan moves to the heap
		e.place = &direct
	}
	if cfg.Topology != nil {
		e.cross = make([]bool, cfg.Segments)
		e.hops = make([]int32, cfg.Segments)
		for s := 0; s < cfg.Segments; s++ {
			d := cfg.Topology.Distance(cfg.Self, s)
			e.cross[s] = s != cfg.Self && d > 1
			e.hops[s] = int32(d)
		}
	}
	e.w = world{e: e, sub: sub, term: term}
	if ts, ok := sub.(TreeSubstrate); ok {
		e.w.tree = ts
	}
	return e
}

// Controller returns the controller resolved for this handle (nil when the
// policy set has none), for observability and trajectory traces.
func (e *Engine) Controller() policy.Controller { return e.ctl }

// Plan returns the handle's search plan. Pools read it once, when they are
// built: a nil Searcher is an order they reject, and Tree asks them for
// the round-counter tree.
func (e *Engine) Plan() search.Plan { return e.plan }

// Gift returns the handle's placement's mailbox split law, nil when the
// placement never gifts. The real pool reads it once, when it is built,
// and allocates mailboxes only for a non-nil law.
func (e *Engine) Gift() func(n, hungry int) int { return e.gift }

// StealAmount returns the handle's resolved steal amount — the spawned
// per-handle instance under policy.PerHandle sets.
func (e *Engine) StealAmount() policy.StealAmount { return e.steal }

// Tracer returns the handle's flight recorder, nil when tracing is
// disabled. Substrates use it to emit their reserve/transfer and gift
// edges onto the same timeline as the engine's protocol events.
func (e *Engine) Tracer() *trace.Recorder { return e.tr }

// Observe feeds one remove outcome to the handle's controller, if any.
// Outcomes a search produced (a steal, an abort, or any probe) are also
// recorded on the flight recorder (got, or -1 on abort, plus the probe
// count); local hits are not, so the owner path never touches the
// recorder and its ring keeps the protocol history. With neither a
// controller nor a recorder the call is one inlined test.
func (e *Engine) Observe(fb policy.Feedback) {
	if e.tr == nil && e.ctl == nil {
		return
	}
	e.observe(fb)
}

// ObserveLocal feeds a local hit of n elements to the handle's controller,
// if any: Observe(policy.Feedback{Got: n}), which never records a local
// hit, so the recorder needs no test. Without a controller the call is
// one inlined test even on a traced pool.
func (e *Engine) ObserveLocal(n int) {
	if e.ctl != nil {
		e.ctl.Observe(policy.Feedback{Got: n})
	}
}

// observe is Observe's out-of-line half.
func (e *Engine) observe(fb policy.Feedback) {
	if e.tr != nil && (fb.Stole || fb.Aborted || fb.Examined > 0) {
		got := int32(fb.Got)
		if fb.Aborted {
			got = -1
		}
		e.tr.Record(trace.Feedback, got, int32(fb.Examined))
	}
	if e.ctl != nil {
		e.ctl.Observe(fb)
	}
}

// BatchSize returns the controller's recommended batch size for a
// workload configured at current, or current without a controller.
func (e *Engine) BatchSize(current int) int {
	if e.ctl == nil {
		return current
	}
	return e.ctl.BatchSize(current)
}

// NoteProbe classifies one segment probe against the precomputed hop
// distances: local probes are no-ops; remote probes count as near or
// cross-cluster on the stats and the flight recorder. Substrates call
// it for placement size probes; search probes are classified by the
// engine itself.
func (e *Engine) NoteProbe(s int) { e.noteProbe(s, 0) }

// noteProbe is NoteProbe with the steal outcome attached, used by the
// search loop so traced probes carry their haul.
func (e *Engine) noteProbe(s, got int) {
	if s == e.self {
		return
	}
	cross := e.cross != nil && e.cross[s]
	if e.stats != nil {
		e.stats.RecordProbe(cross)
	}
	if e.tr != nil {
		k := trace.ProbeNear
		if cross {
			k = trace.ProbeCross
		}
		e.tr.Record(k, int32(s), int32(got))
	}
}

// DirectTarget scores the placement plan's candidates (when it has any)
// for where an add of n elements should land, probing segment sizes
// through the substrate's SizeProbe. A plan without candidates keeps the
// add local at the cost of one inlined test.
func (e *Engine) DirectTarget(n int) int {
	if e.place == nil {
		return e.self
	}
	return e.directTarget(n)
}

// directTarget is DirectTarget's out-of-line half, under a plan with
// candidates.
func (e *Engine) directTarget(n int) int {
	t := e.place.Direct(e.sizeFn)
	if e.members != nil && t != e.self && !e.members.Victim(t) {
		// The plan picked a departed drain-mode segment: elements there
		// would be invisible to searches. Keep the add local.
		return e.self
	}
	if e.tr != nil && t != e.self {
		e.tr.Record(trace.DirectPlace, int32(t), int32(n))
	}
	return t
}

// Search runs one search-steal on behalf of an operation wanting up to
// want elements: arm the termination rule, run the substrate's Enter
// bookkeeping, drive the search strategy over the substrate, and undo the
// bookkeeping. On success (Result.Got > 0) the substrate holds the
// reserved element and has transferred the rest toward the handle; on
// abort the termination rule certified emptiness (or the substrate
// stopped the search). Search performs no per-call allocation.
func (e *Engine) Search(want int) search.Result {
	e.w.want = want
	e.w.maxHop = 1
	if e.tr != nil {
		e.tr.Record(trace.SearchBegin, int32(want), 0)
	}
	e.w.term.Begin(want)
	e.w.sub.Enter(want)
	res := e.plan.Searcher.Search(&e.w)
	e.w.sub.Exit()
	if e.tr != nil {
		if res.Got == 0 {
			// Distinguish the two empty-handed endings on the timeline:
			// a substrate hard stop (closed, drained, gift landed) is an
			// abort; otherwise the termination rule certified emptiness.
			if e.w.sub.Stopped() {
				e.tr.Record(trace.TerminationAborted, int32(want), 0)
			} else {
				e.tr.Record(trace.TerminationCertified, int32(want), 0)
			}
		}
		ring := e.w.maxHop
		if e.hops == nil {
			ring = 0 // no topology: rings are meaningless
		}
		e.tr.Record(trace.SearchEnd, int32(res.Got), ring)
	}
	return res
}

// world adapts a Substrate and a Termination rule to search.World (and
// search.TreeWorld when the substrate supports the round-counter tree),
// so the search algorithms see exactly the interface they were written
// against while the engine records probes and termination evidence.
type world struct {
	e      *Engine
	sub    Substrate
	tree   TreeSubstrate // non-nil iff sub implements TreeSubstrate
	term   Termination
	want   int
	maxHop int32 // farthest topology ring probed by the current search
}

var _ search.TreeWorld = (*world)(nil)

// Segments implements search.World.
func (w *world) Segments() int { return w.e.segments }

// Self implements search.World.
func (w *world) Self() int { return w.e.self }

// TrySteal implements search.World: delegate the probe to the substrate,
// classify it (near/cross-cluster, and same/foreign tenant when the policy
// set carries a partition), and report the outcome to the termination rule.
func (w *world) TrySteal(s int) int {
	if m := w.e.members; m != nil && s != w.e.self && !m.Victim(s) {
		// Departed drain-mode segment: the kill drained it and deposit
		// redirects keep it empty, so skipping the probe is sound. It
		// still counts as coverage evidence — the exact rule needs every
		// segment accounted for, and any later rejoin bumps the epoch,
		// which re-arms the rule before emptiness could be certified
		// against stale membership.
		w.term.SawEmpty(s)
		return 0
	}
	got := w.sub.Probe(s, w.want)
	w.e.noteProbe(s, got)
	if w.e.tr != nil && w.e.hops != nil && s != w.e.self {
		// Ring-escalation detection: the first probe past the farthest
		// ring this search has touched marks the searcher widening its
		// scope (HierarchicalOrder's ladder, or any order that strays).
		if h := w.e.hops[s]; h > w.maxHop {
			if h > 1 {
				w.e.tr.Record(trace.EscalateRing, h, int32(s))
			}
			w.maxHop = h
		}
	}
	if got > 0 {
		if foreign := w.e.foreign; s != w.e.self && s < len(foreign) {
			if w.e.stats != nil {
				w.e.stats.RecordStealVictim(foreign[s])
			}
			if foreign[s] && w.e.tr != nil {
				w.e.tr.Record(trace.TenantForeignSteal, int32(s), int32(got))
			}
		}
		w.term.SawProgress()
	} else {
		w.term.SawEmpty(s)
	}
	return got
}

// Aborted implements search.World: substrate hard stops first (closed
// pools, landed gifts, drains), then the termination rule's emptiness
// certificate.
func (w *world) Aborted() bool {
	return w.sub.Stopped() || w.term.Aborted()
}

// NumLeaves implements search.TreeWorld.
func (w *world) NumLeaves() int { return w.tree.NumLeaves() }

// RoundOf implements search.TreeWorld.
func (w *world) RoundOf(n int) uint64 { return w.tree.RoundOf(n) }

// MaxRound implements search.TreeWorld.
func (w *world) MaxRound(n int, r uint64) { w.tree.MaxRound(n, r) }
