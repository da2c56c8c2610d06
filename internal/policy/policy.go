// Package policy factors every tunable decision in the concurrent pool
// into small, composable interfaces, so that the choices the paper studies
// — how much a steal transfers, which victims a search visits, where an
// add lands — are pluggable values instead of enums and if-branches
// scattered through internal/core and internal/sim.
//
// Four decision points are modelled:
//
//   - StealAmount: how many elements a successful steal transfers
//     (the paper's steal-half, the steal-one ablation, a split
//     proportional to the requester's batch size, and an adaptive
//     fraction tuned online — pool-wide or per handle);
//   - VictimOrder: which remote segments a searching process visits and
//     in what order — the three internal/search algorithms, plus
//     LocalityOrder, which ranks victims by a numa.CostModel so near
//     victims are probed first (the policy the paper's Section 4.3
//     delayed-architecture experiments motivate but could not test);
//   - Placement: where added elements land — the local segment, gifted
//     (whole or split) to hungry searchers via directed-add mailboxes
//     (the paper's Section 5 hint extension, batch-aware), or directed
//     to the emptiest segment by probing sizes (GiftToEmptiest, the
//     Director extension of the paper's symmetric remote-add footnote);
//   - Controller: an online tuner fed per-remove feedback (steal rate,
//     search length, haul size, operation time) that adjusts the steal
//     fraction and the recommended batch size while a run executes;
//     Spawner controllers (PerHandle) mint one instance per handle so
//     heterogeneous processes tune independently.
//
// A Set bundles one choice per decision point. Both execution substrates
// — the real pool (internal/core) and the virtual-time Butterfly
// (internal/sim) — consult the same Set values, so a policy measured in
// simulation is exactly the policy the library executes.
//
// Implementations must be deterministic functions of their inputs and
// observed feedback: the simulator replays byte-identical runs for a
// fixed seed, and that property must hold under every policy.
package policy

import (
	"fmt"
	"strings"

	"pools/internal/search"
)

// StealAmount decides how many elements a successful steal transfers from
// a victim segment into the thief's local segment.
type StealAmount interface {
	// Amount returns the number of elements to take from a victim
	// currently holding n elements (n >= 1) when the requesting operation
	// wants up to want elements (want >= 1; a plain Get wants 1, a GetN
	// wants its max). Implementations must return a value in [1, n]: a
	// steal never returns empty-handed from a non-empty victim, and never
	// takes more than the victim holds.
	Amount(n, want int) int
	// Name identifies the policy in tables and CSV output.
	Name() string
}

// VictimOrder decides which remote segments a searching process visits,
// and in what order, by supplying the search strategy it runs. It layers
// over internal/search: the three paper algorithms are orderings (ring,
// shuffled, tree-guided), and custom orders plug in the same way.
type VictimOrder interface {
	// Searcher returns the search strategy for the process owning segment
	// self in a pool of segments segments. The seed feeds randomized
	// orders; deterministic orders ignore it.
	Searcher(self, segments int, seed uint64) search.Searcher
	// Name identifies the order in tables and CSV output.
	Name() string
}

// Placement decides where a Put or PutAll lands: how many of the added
// elements are offered to hungry searchers through directed-add mailboxes
// (the rest go to the adder's local segment).
type Placement interface {
	// GiftSplit returns how many of a batch of n added elements (n >= 1)
	// should be gifted to hungry searchers, of which there are currently
	// hungry (>= 0). The result is clamped by the caller to [0, n];
	// returning 0 keeps the whole batch local. For single-element adds
	// the decision is binary, and callers may report hungry as 1 once any
	// hungry searcher is found rather than counting them all.
	GiftSplit(n, hungry int) int
	// Name identifies the placement in tables and CSV output.
	Name() string
}

// Feedback is one completed remove operation's outcome, the signal a
// Controller tunes from. The fields mirror what internal/metrics
// counts on every operation: steal rate, search length, and haul size.
type Feedback struct {
	Stole    bool // the remove needed a successful steal (false for local removes and for directed-add gifts, which spared the steal)
	Aborted  bool // the remove aborted (livelock rule / exhaustion)
	Examined int  // segments probed by the search (0 for local removes)
	Got      int  // elements obtained (haul size; 0 on abort)
}

// Controller tunes pool parameters online from per-remove feedback.
// Implementations must tolerate concurrent Observe calls (the real pool
// feeds one controller from many goroutines); under the single-threaded
// simulator the observation order is deterministic and so must be the
// resulting parameter trajectory.
type Controller interface {
	// Observe folds one remove outcome into the controller's state.
	Observe(Feedback)
	// BatchSize recommends the batch size for the next batched operation,
	// given the workload-configured size. Static policies return current.
	BatchSize(current int) int
	// StealFraction reports the currently tuned steal fraction in (0, 1],
	// for observability and rendering.
	StealFraction() float64
	// Name identifies the controller in tables and CSV output.
	Name() string
}

// Set bundles one policy per decision point. The zero value means "paper
// defaults": steal-half, the pool's configured search algorithm, local
// placement, and no online control.
type Set struct {
	Steal   StealAmount // nil → Half
	Order   VictimOrder // nil → Order{pool's configured search.Kind}
	Place   Placement   // nil → Local; GiftAll is the paper's Section 5 directed adds
	Control Controller  // nil → no online tuning
}

// Name renders the set compactly: the steal policy's name, with non-default
// components appended.
func (s Set) Name() string {
	parts := []string{}
	if s.Steal != nil {
		parts = append(parts, s.Steal.Name())
	}
	if s.Order != nil {
		parts = append(parts, "order="+s.Order.Name())
	}
	if s.Place != nil {
		parts = append(parts, "place="+s.Place.Name())
	}
	if s.Control != nil && (s.Steal == nil || s.Control.Name() != s.Steal.Name()) {
		parts = append(parts, "ctl="+s.Control.Name())
	}
	if len(parts) == 0 {
		return "default"
	}
	return strings.Join(parts, ",")
}

// WithDefaults returns s with nil slots filled: steal-half, the given
// search kind as victim order, and local placement.
func (s Set) WithDefaults(kind search.Kind) Set {
	if s.Steal == nil {
		s.Steal = Half{}
	}
	if s.Order == nil {
		if kind == 0 {
			kind = search.Linear
		}
		s.Order = Order{Kind: kind}
	}
	if s.Place == nil {
		s.Place = Local{}
	}
	return s
}

// Names lists the steal policies Named constructs, in presentation order.
func Names() []string { return []string{"half", "one", "proportional", "adaptive", "per-handle"} }

// Named returns a fresh Set for a steal-policy name: "half", "one",
// "proportional", "adaptive", or "per-handle". Each call constructs new
// state, so adaptive and per-handle sets from separate calls never share
// a controller — required for independent trials.
func Named(name string) (Set, error) {
	switch strings.ToLower(name) {
	case "half", "steal-half", "":
		return Set{Steal: Half{}}, nil
	case "one", "steal-one":
		return Set{Steal: One{}}, nil
	case "proportional", "prop":
		return Set{Steal: Proportional{}}, nil
	case "adaptive":
		a := NewAdaptive()
		return Set{Steal: a, Control: a}, nil
	case "per-handle", "adaptive-per-handle":
		p := NewPerHandle()
		return Set{Steal: p, Control: p}, nil
	default:
		return Set{}, fmt.Errorf("policy: unknown steal policy %q (have %v)", name, Names())
	}
}

// ForHandle resolves the controller and steal amount one handle should
// consult. When the set's controller is a Spawner (the per-handle
// adaptive pattern), the handle receives its own spawned instance — and
// when the set's steal amount is that same controller object, the spawned
// instance also becomes the handle's steal amount, so each handle steals
// by its own tuned fraction. Pool-wide controllers and static steal
// amounts pass through unchanged. Both substrates (internal/core and
// internal/sim) and the keyed pool call this once per handle at
// construction, which is what makes a policy measured in simulation
// exactly the policy the library executes.
func (s Set) ForHandle(handle int) (Controller, StealAmount) {
	ctl, steal := s.Control, s.Steal
	if sp, ok := ctl.(Spawner); ok {
		sub := sp.Spawn(handle)
		if sa, ok := sub.(StealAmount); ok && any(steal) == any(ctl) {
			steal = sa
		}
		ctl = sub
	}
	return ctl, steal
}

// Order is the VictimOrder wrapping one of the paper's three search
// algorithms: linear visits the ring clockwise from the last success,
// random visits in a private shuffled order, and tree follows Manber's
// round-counter tree.
type Order struct{ Kind search.Kind }

// Searcher implements VictimOrder.
func (o Order) Searcher(self, segments int, seed uint64) search.Searcher {
	return search.New(o.Kind, self, segments, seed)
}

// Name implements VictimOrder.
func (o Order) Name() string { return o.Kind.String() }

// KindOf returns the search algorithm behind a VictimOrder, or 0 for
// custom orders. The pools use it to decide whether the tree search's
// round-counter nodes must be allocated. Orders that may delegate to a
// paper algorithm (LocalityOrder's uniform-cost fallback) report it via a
// SearchKind method; other custom orders that need the tree should embed
// Order{Kind: search.Tree} or expose the same method.
func KindOf(o VictimOrder) search.Kind {
	switch v := o.(type) {
	case Order:
		return v.Kind
	case interface{ SearchKind() search.Kind }:
		return v.SearchKind()
	}
	return 0
}

// clamp bounds a steal amount to [1, n] (n >= 1).
func clamp(k, n int) int {
	if k < 1 {
		return 1
	}
	if k > n {
		return n
	}
	return k
}
