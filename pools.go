// Package pools implements concurrent pools: unordered collections
// partitioned into per-process segments so that most operations touch
// only local state, with remote steal-half searches when a local segment
// runs dry. It is a full reproduction of the data structure evaluated in
//
//	David Kotz and Carla Schlatter Ellis, "Evaluation of Concurrent
//	Pools", Proc. 9th International Conference on Distributed Computing
//	Systems (ICDCS), 1989.
//
// Three steal-search algorithms are provided: Manber's tree search with
// round counters, linear (ring) search, and random search. The pool is a
// natural work list for dynamically created tasks — the paper's
// application study schedules a parallel game-tree search with one.
//
// # Quickstart
//
//	p, err := pools.New[Task](pools.Options{Segments: 8, Policies: pools.PolicySet{Order: pools.SearchTree}})
//	if err != nil { ... }
//	h := p.Handle(workerID) // each worker owns one segment
//	h.Put(task)             // O(1), local
//	task, ok := h.Get()     // local pop, or steal half of a remote segment
//
// Get returns ok=false only when the pool is empty and no registered
// participant could be adding (the paper's livelock rule plus a staleness
// backstop), or the pool/handle is closed.
//
// # Batch operations
//
// Bursty producers and consumers should move elements in batches: PutAll
// places a whole slice under one segment-lock acquisition, and GetN drains
// up to max elements in one operation — on a dry local segment a
// steal-half already transfers a batch, and GetN returns that batch
// instead of one element at a time:
//
//	h.PutAll(tasks)          // k elements, one lock acquisition
//	batch := h.GetN(32)      // up to 32 elements; nil under Get's ok=false conditions
//
// The keyed pool mirrors the same pair as PutAll(key, items) and
// GetN(key, max). At batch sizes >= 8 the amortization is worth several
// times the per-element cost of the single-element loop (see
// BenchmarkBatchPutGet and the `poolbench -exp burst` sweep).
//
// # Policies
//
// Every tunable decision in the pool is a pluggable value on
// Options.Policies (a PolicySet): how many elements a steal transfers
// (StealAmount — the paper's steal-half, the steal-one ablation, a split
// proportional to the requester's batch, or an online-tuned adaptive
// fraction), which victims a search visits (VictimOrder, layered over the
// three search algorithms), where adds land (Placement — local, or gifted
// whole or split to hungry searchers through the directed-add mailboxes),
// and an optional Control that gives each handle a Controller retuning
// the steal fraction and batch size from live feedback:
//
//	set, _ := pools.PolicyByName("adaptive")
//	p, _ := pools.New[Task](pools.Options{Segments: 8, Policies: set})
//
// The zero PolicySet is the paper's configuration. The same sets drive
// the simulated Butterfly, so `poolbench -exp policy` measures exactly
// the policies this library executes.
//
// # Locality-aware policies
//
// On machines where "remote" is not one cost, three policies consult
// where things live instead of being blind to it. LocalityVictimOrder
// ranks steal victims by a CostModel (cheapest first, falling back to a
// paper algorithm when costs are victim-uniform); EmptiestPlacement
// probes segment sizes and lands adds on the emptiest segment; and the
// "per-handle" policy set gives every handle its own adaptive controller
// so a producer-heavy handle and a consumer-heavy one converge to
// different steal fractions:
//
//	costs := pools.ButterflyCosts().WithTopology(pools.ClusterTopology{Size: 4}).WithExtraDelay(1000)
//	p, _ := pools.New[Task](pools.Options{
//		Segments: 16,
//		Policies: pools.PolicySet{
//			Order: pools.LocalityVictimOrder{Model: costs},
//			Place: pools.EmptiestPlacement{},
//		},
//	})
//	set, _ := pools.PolicyByName("per-handle")
//
// On clustered machines two policies go further: HierarchicalVictimOrder
// exhausts the searcher's own cluster before escalating to the next hop
// ring (with an escalation threshold the adaptive controllers tune
// online), and NearestEmptiestPlacement weighs a segment's emptiness
// against the hop cost of reaching it. Setting Options.Topology makes the
// pool count cross-cluster probes in its stats:
//
//	topo := pools.ClusterTopology{Size: 4}
//	p, _ := pools.New[Task](pools.Options{
//		Segments: 16,
//		Topology: topo,
//		Policies: pools.PolicySet{
//			Order: pools.HierarchicalVictimOrder{Topo: topo},
//			Place: pools.NearestEmptiestPlacement{Model: costs},
//		},
//	})
//
// `poolbench -exp locality`, `-exp hier`, `-exp keyedloc`, and
// `-exp trace` measure these; see docs/EXPERIMENTS.md.
//
// The packages under internal/ hold the implementation, the simulated
// 16-processor Butterfly used to reproduce the paper's measurements, the
// experiment harness (cmd/poolbench regenerates every table and figure),
// and the tic-tac-toe application study (cmd/tictactoe).
// docs/ARCHITECTURE.md maps the packages and how a policy decision
// travels through both substrates.
package pools

import (
	"io"

	"pools/internal/core"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/trace"
)

// Pool is a concurrent pool of T. See core.Pool.
type Pool[T any] = core.Pool[T]

// Handle is one process's attachment to a pool segment. See core.Handle.
type Handle[T any] = core.Handle[T]

// Options configures a Pool. See core.Options.
type Options = core.Options

// PolicySet bundles the pool's pluggable decisions: steal amount, victim
// order, placement, and online control. See internal/policy for the
// catalog of implementations.
type PolicySet = policy.Set

// The four policy decision points. Custom implementations plug into a
// PolicySet alongside the built-ins.
type (
	// StealAmount decides how many elements a steal transfers.
	StealAmount = policy.StealAmount
	// VictimOrder decides which segments a search visits, in what order.
	VictimOrder = policy.VictimOrder
	// Placement decides where adds land. It answers one call, Plan, with
	// one handle's placement plan: how much of an added batch is gifted
	// to hungry searchers, which segments an add probes and how each is
	// scored, and the tenant mask. Plan replaced the former GiftSplit
	// method and the optional Director and Grouped interfaces, so a
	// custom Placement written against those no longer compiles.
	Placement = policy.Placement
	// PlacePlan is one handle's placement, as Placement.Plan returns it.
	PlacePlan = policy.PlacePlan
	// Controller retunes one handle's steal fraction, batch size and
	// escalation threshold from feedback. It is a StealAmount too: the
	// handle steals by it when the set names no Steal.
	Controller = policy.Controller
	// Control is PolicySet.Control: it spawns each handle's Controller.
	// It replaced Controller as that field's type, so a custom controller
	// set there needs a Spawn(handle) method and no longer a pool-level
	// Observe or BatchSize.
	Control = policy.Control
)

// Built-in steal amounts and placements, re-exported for configuration
// literals like Options{Policies: PolicySet{Steal: ProportionalSteal{}}}.
type (
	// StealHalfAmount is the paper's steal-half (ceil(n/2)).
	StealHalfAmount = policy.Half
	// StealOneAmount is the steal-one ablation.
	StealOneAmount = policy.One
	// ProportionalSteal steals about Factor times the requester's batch.
	ProportionalSteal = policy.Proportional
	// AdaptiveSteal tunes its fraction online; see NewAdaptivePolicy.
	AdaptiveSteal = policy.Adaptive
	// GiftAllPlacement gifts whole batches to hungry searchers.
	GiftAllPlacement = policy.GiftAll
	// GiftHalfPlacement gifts half of each batch and keeps half local.
	GiftHalfPlacement = policy.GiftHalf
	// GiftOnePlacement gifts one element per hungry searcher.
	GiftOnePlacement = policy.GiftOne
	// LocalPlacement keeps every add in the adder's own segment.
	LocalPlacement = policy.Local
	// EmptiestPlacement probes segment sizes and lands each add on the
	// emptiest segment probed (gifting to hungry searchers first).
	EmptiestPlacement = policy.GiftToEmptiest
	// NearestEmptiestPlacement weighs a candidate segment's emptiness
	// against the hop cost of reaching it, keeping adds near on clustered
	// machines unless a farther segment is much emptier.
	NearestEmptiestPlacement = policy.GiftToNearestEmptiest
	// LocalityVictimOrder ranks steal victims by expected access cost
	// under a CostModel, visiting near victims first.
	LocalityVictimOrder = policy.LocalityOrder
	// HierarchicalVictimOrder exhausts the searcher's own cluster —
	// repeatedly, under a tunable fruitless-probe threshold — before
	// escalating to the next hop ring of its Topology.
	HierarchicalVictimOrder = policy.HierarchicalOrder
	// PerHandleControl hands every pool handle its own independent
	// adaptive controller, which is also that handle's steal amount;
	// see NewPerHandlePolicy. Set it as PolicySet.Control alone: it is
	// no StealAmount, so code that also passes it as Steal no longer
	// compiles.
	PerHandleControl = policy.PerHandle
	// TenantMap assigns each segment to a tenant; see EvenTenants.
	TenantMap = policy.TenantMap
	// TenantFairPlacement keeps a tenant's adds inside its own segment
	// block and arms the pool's steal-interference accounting (the
	// TenantSteals/ForeignSteals counters on its stats).
	TenantFairPlacement = policy.TenantFair
)

// EvenTenants partitions segments into contiguous equal blocks, one per
// tenant — the mapping behind the multi-tenant experiments (see
// docs/WORKLOADS.md). Pair it with TenantFairPlacement:
//
//	tm := pools.EvenTenants(16, 4)
//	p, _ := pools.New[Task](pools.Options{
//		Segments: 16, CollectStats: true,
//		Policies: pools.PolicySet{Place: pools.TenantFairPlacement{Map: tm}},
//	})
func EvenTenants(segments, tenants int) TenantMap { return policy.EvenTenants(segments, tenants) }

// CostModel maps memory accesses to time by access kind, accessor, and
// home processor; see internal/numa. Build one with ButterflyCosts and
// shape it with WithExtraDelay / WithTopology.
type CostModel = numa.CostModel

// Topology assigns hop distances to processor pairs. Set one on
// Options.Topology to classify remote probes as near or cross-cluster in
// the pool's stats (and to scale an active Delayer's busy-waits by hop
// distance), and on HierarchicalVictimOrder to define its rings.
type Topology = numa.Topology

// UniformTopology is the flat switch network: every remote pair one hop.
type UniformTopology = numa.Uniform

// ClusterTopology groups processors into fixed-size clusters: remote
// references inside a cluster are near (one hop), across clusters far.
type ClusterTopology = numa.Clusters

// ButterflyCosts returns the cost model calibrated to the paper's
// measured BBN Butterfly (70 µs local add, 110 µs local remove, remote
// about 4x local).
func ButterflyCosts() CostModel { return numa.ButterflyCosts() }

// NewAdaptivePolicy returns a fresh pool-wide adaptive controller (one
// per pool; adaptive state must not be shared between pools). Set
// Control alone — PolicySet{Control: NewAdaptivePolicy()} — and every
// handle steals by its tuned fraction; a Steal set beside it takes
// precedence.
func NewAdaptivePolicy() *AdaptiveSteal { return policy.NewAdaptive() }

// NewPerHandlePolicy returns a fresh per-handle adaptive policy: each
// pool handle spawns its own controller from it and steals by that
// controller's fraction (one per pool, like NewAdaptivePolicy). Set
// Control alone: PolicySet{Control: NewPerHandlePolicy()}. A
// PerHandleControl is no StealAmount, so passing it as Steal no longer
// compiles.
func NewPerHandlePolicy() *PerHandleControl { return policy.NewPerHandle() }

// PolicyByName returns a fresh PolicySet for a steal-policy name: "half",
// "one", "proportional", "adaptive", or "per-handle".
func PolicyByName(name string) (PolicySet, error) { return policy.Named(name) }

// SearchKind selects the steal-search algorithm. It is itself a
// VictimOrder: set it as PolicySet.Order (nil means SearchLinear).
type SearchKind = search.Kind

// The three search algorithms the paper evaluates.
const (
	SearchLinear = search.Linear
	SearchRandom = search.Random
	SearchTree   = search.Tree
)

// Flight-recorder types, so callers can name what Options.TraceBuf turns
// on and Pool.Timelines/Pool.Tracer return. The recorder is a per-handle
// fixed-size ring of typed protocol events (probes, reserve/transfer
// edges, gifts, escalations, termination verdicts), allocated by the
// handle's first event; recording after that is allocation-free, and
// tracing is disabled entirely when TraceBuf is 0. See internal/trace
// and docs/OBSERVABILITY.md.
type (
	// TraceEvent is one recorded protocol event.
	TraceEvent = trace.Event
	// TraceKind identifies a TraceEvent's type (its String is the
	// snake_case name used in exports).
	TraceKind = trace.Kind
	// TraceTimeline is one handle's recorded history, oldest first.
	TraceTimeline = trace.Timeline
	// TraceRecorder is the per-handle ring recorder itself; safe to dump
	// while its handle keeps recording.
	TraceRecorder = trace.Recorder
)

// WriteChromeTrace exports recorded timelines as Chrome trace-event JSON
// — load the file in chrome://tracing or Perfetto; each handle renders
// as its own track with searches as slices and everything else as
// instants.
func WriteChromeTrace(w io.Writer, tls []TraceTimeline) error { return trace.ChromeJSON(w, tls) }

// WriteTraceCSV exports recorded timelines as a flat CSV event log
// (ts,handle,event,arg1,arg2), merged across handles by timestamp.
func WriteTraceCSV(w io.Writer, tls []TraceTimeline) error { return trace.WriteCSV(w, tls) }

// ErrBadOptions is returned by New for invalid configuration.
var ErrBadOptions = core.ErrBadOptions

// New creates a pool with the given options.
func New[T any](opts Options) (*Pool[T], error) {
	return core.New[T](opts)
}
