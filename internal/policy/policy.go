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
//     delayed-architecture experiments motivate but could not test), and
//     HierarchicalOrder, which exhausts each hop ring before the next.
//     An order answers one call, Plan, with one handle's search.Plan: its
//     searcher, its victim rank for sweeping substrates, and whether the
//     search needs the tree's round counters;
//   - Placement: where added elements land — the local segment, gifted
//     (whole or split) to hungry searchers via directed-add mailboxes
//     (the paper's Section 5 hint extension, batch-aware), or directed
//     to the best-scored of a few probed segments (GiftToEmptiest and
//     friends, the paper's symmetric remote-add footnote). A placement
//     answers one call, Plan, with one handle's PlacePlan: its gift split
//     law, its probe candidates and their scores, and its tenant mask;
//   - Controller: an online tuner fed per-remove feedback (steal rate,
//     search length, haul size, operation time) that adjusts the steal
//     fraction, the recommended batch size and the hierarchical
//     searchers' escalation threshold while a run executes. A Set's
//     Control hands each handle its controller: Adaptive shares one
//     across the pool, PerHandle spawns one per handle so heterogeneous
//     processes tune independently. A handle's controller is also its
//     steal amount unless the set names one.
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
// and in what order, by planning the search each handle runs. It layers
// over internal/search: the three paper algorithms are orderings (ring,
// shuffled, tree-guided), and search.Kind itself implements VictimOrder,
// so search.Tree is a complete order. Custom orders plug in the same way.
type VictimOrder interface {
	// Plan resolves the order for the process owning segment self in a
	// pool of segments segments. The seed feeds randomized orders;
	// deterministic orders ignore it. escalate is the handle's
	// Controller.EscalationThreshold, nil when the set has no controller;
	// escalating orders tune their searcher with it. Pools call Plan once
	// per handle, when they are built.
	Plan(self, segments int, seed uint64, escalate func(base int) int) search.Plan
	// Name identifies the order in tables and CSV output.
	Name() string
}

// Placement decides where a Put or PutAll lands: how many of the added
// elements are offered to hungry searchers through directed-add mailboxes,
// and which segment takes the rest — the adder's own, or the best of the
// candidates its plan probes (the paper's symmetric remote-add footnote).
type Placement interface {
	// Plan resolves the placement for the process owning segment self in
	// a pool of segments segments. Pools call Plan once per handle, when
	// they are built.
	Plan(self, segments int) PlacePlan
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

// Controller tunes one handle's pool parameters online from per-remove
// feedback. It is a StealAmount too: a handle whose set names no steal
// amount steals by its controller's tuned fraction. Implementations must
// tolerate concurrent Observe calls (the real pool feeds a pool-wide
// controller from many goroutines); under the single-threaded simulator
// the observation order is deterministic and so must be the resulting
// parameter trajectory.
type Controller interface {
	StealAmount
	// Observe folds one remove outcome into the controller's state.
	Observe(Feedback)
	// BatchSize recommends the batch size for the next batched operation,
	// given the workload-configured size. Static policies return current.
	BatchSize(current int) int
	// StealFraction reports the currently tuned steal fraction in (0, 1],
	// for observability and rendering.
	StealFraction() float64
	// EscalationThreshold tunes how many consecutive fruitless probes a
	// hierarchical searcher invests in its current hop frontier, whose
	// untuned (structural) threshold is base (>= 1), before escalating to
	// the next ring. It must return a value >= 1: a searcher always
	// invests at least one probe per frontier, or escalation degenerates
	// into a flat search.
	EscalationThreshold(base int) int
}

// Control is a Set's online-tuning slot: it hands every pool handle the
// Controller that handle consults.
type Control interface {
	// Spawn returns the controller the handle owning segment handle
	// consults, so that every handle can tune from its own feedback
	// stream. Pool-wide controls (Adaptive) return one shared controller;
	// PerHandle returns the handle's own instance, the same one on every
	// call. Pools call Spawn once per handle, when they are built.
	Spawn(handle int) Controller
	// Name identifies the control in tables and CSV output.
	Name() string
}

var _ VictimOrder = search.Linear

// Set bundles one policy per decision point. The zero value means "paper
// defaults": steal-half, linear search, local placement, and no online
// control.
type Set struct {
	Steal   StealAmount // nil → each handle's controller, or Half without a Control
	Order   VictimOrder // nil → search.Linear; any search.Kind is an order
	Place   Placement   // nil → Local; GiftAll is the paper's Section 5 directed adds
	Control Control     // nil → no online tuning
}

// Name renders the set compactly: the steal policy's name (the control's
// when the controllers steal), with non-default components appended.
func (s Set) Name() string {
	parts := []string{}
	if s.Steal != nil {
		parts = append(parts, s.Steal.Name())
	} else if s.Control != nil {
		parts = append(parts, s.Control.Name())
	}
	if s.Order != nil {
		parts = append(parts, "order="+s.Order.Name())
	}
	if s.Place != nil {
		parts = append(parts, "place="+s.Place.Name())
	}
	if s.Steal != nil && s.Control != nil {
		parts = append(parts, "ctl="+s.Control.Name())
	}
	if len(parts) == 0 {
		return "default"
	}
	return strings.Join(parts, ",")
}

// WithDefaults returns s with nil slots filled: linear search, local
// placement, and steal-half when no Control's controllers steal instead.
func (s Set) WithDefaults() Set {
	if s.Steal == nil && s.Control == nil {
		s.Steal = Half{}
	}
	if s.Order == nil {
		s.Order = search.Linear
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
		return Set{Control: NewAdaptive()}, nil
	case "per-handle", "adaptive-per-handle":
		return Set{Control: NewPerHandle()}, nil
	default:
		return Set{}, fmt.Errorf("policy: unknown steal policy %q (have %v)", name, Names())
	}
}

// ForHandle resolves the controller and steal amount one handle should
// consult: the controller the set's Control spawns for the handle (nil
// without a Control), and the set's Steal, or that controller when the
// set names no steal amount — so under PerHandle each handle steals by
// its own tuned fraction. Both substrates (internal/core and
// internal/sim) and the keyed pool call this once per handle at
// construction, which is what makes a policy measured in simulation
// exactly the policy the library executes.
func (s Set) ForHandle(handle int) (Controller, StealAmount) {
	if s.Control == nil {
		return nil, s.Steal
	}
	ctl := s.Control.Spawn(handle)
	if s.Steal != nil {
		return ctl, s.Steal
	}
	return ctl, ctl
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
