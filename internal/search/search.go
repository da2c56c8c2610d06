// Package search implements the three steal-search algorithms the paper
// evaluates: Manber's tree search, linear (ring) search, and random search.
//
// The algorithms are written against the World interface so that exactly
// the same decision logic drives both execution substrates in this repo:
//
//   - the real concurrent pool (internal/core), where World methods hit
//     element segments (thieves under a per-segment lock) and atomic
//     round counters, and
//   - the Butterfly simulator (internal/sim), where World methods charge
//     virtual time for local/remote accesses and queue on simulated locks.
//
// A Searcher carries the per-process state the paper describes (MyRound,
// LastLeaf for the tree; LastFound for linear; a private PRNG for random).
// Searchers are NOT safe for concurrent use: each process owns one.
package search

import "fmt"

// Kind selects a search algorithm.
type Kind int

// The three algorithms evaluated in the paper.
const (
	Linear Kind = iota + 1
	Random
	Tree
)

// String returns the lower-case algorithm name.
func (k Kind) String() string {
	switch k {
	case Linear:
		return "linear"
	case Random:
		return "random"
	case Tree:
		return "tree"
	case Ordered:
		return "ordered"
	case Hierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Plan is one handle's victim order, resolved when its pool is built:
// what policy.VictimOrder.Plan returns.
type Plan struct {
	// Searcher runs the handle's searches. It is nil when the order names
	// no search algorithm (an unknown Kind), which pools reject.
	Searcher Searcher
	// Rank is the victim visit order, self first and every segment once,
	// for substrates that sweep rather than search (the keyed pool). It is
	// nil when ranking adds nothing and the sweep keeps its ring order.
	Rank []int
	// Tree reports that Searcher descends the round-counter tree, which
	// the engine then allocates (engine.Tree).
	Tree bool
}

// Plan implements policy.VictimOrder: a Kind is itself a victim order, so
// the paper's algorithms need no wrapper. It ignores escalate. An unknown
// kind plans no searcher instead of panicking, so pools can reject it.
func (k Kind) Plan(self, segments int, seed uint64, escalate func(base int) int) Plan {
	if k < Linear || k > Tree {
		return Plan{}
	}
	return Plan{Searcher: New(k, self, segments, seed), Tree: k == Tree}
}

// Name implements policy.VictimOrder.
func (k Kind) Name() string { return k.String() }

// Kinds lists all algorithms in presentation order (the order the paper
// introduces them is tree, linear, random; we sweep in enum order).
func Kinds() []Kind { return []Kind{Linear, Random, Tree} }

// World is a searching process's view of the pool. Implementations are
// responsible for synchronization and for charging local/remote access
// costs; the search algorithms only decide *where to look next*.
type World interface {
	// Segments returns the number of segments in the pool.
	Segments() int
	// Self returns the caller's segment index.
	Self() int
	// TrySteal probes segment s. If s is non-empty it steals roughly half
	// of s's elements into the caller's segment (a single element is taken
	// outright) and returns the number obtained; it returns 0 if s was
	// empty. Probing s == Self just reports the local segment's size.
	TrySteal(s int) int
	// Aborted reports whether the search must stop: the paper aborts an
	// operation when every participating process is searching (pool-wide
	// livelock), and implementations may also fold in cancellation.
	Aborted() bool
}

// TreeWorld extends World with the superimposed binary tree of round
// counters required by the tree algorithm. Nodes use heap indices:
// the root is 1, node n's children are 2n and 2n+1, and with L leaves
// (L = NumLeaves, a power of two) leaf l of segment i has index L+i.
type TreeWorld interface {
	World
	// NumLeaves returns the number of tree leaves: the smallest power of
	// two >= Segments(). Segments beyond Segments() are phantom leaves
	// that are permanently empty.
	NumLeaves() int
	// RoundOf returns node n's round counter.
	RoundOf(n int) uint64
	// MaxRound raises node n's round counter to r if r is greater.
	// (The paper guards examine+modify with a lock; monotonic max is the
	// equivalent lock-free contract and is what the simulator serializes.)
	MaxRound(n int, r uint64)
}

// Result reports the outcome of one search.
type Result struct {
	// Got is the number of elements obtained (moved into the local
	// segment). Zero means the search aborted.
	Got int
	// FoundAt is the segment that supplied the elements, or -1 on abort.
	FoundAt int
	// Examined is the number of segment probes performed, including the
	// final successful one ("the number of segments examined per steal").
	Examined int
}

// Aborted reports whether the search failed to obtain elements.
func (r Result) Aborted() bool { return r.Got == 0 }

// Searcher is one process's search algorithm instance.
type Searcher interface {
	// Search hunts for elements on behalf of w.Self, stealing into the
	// local segment, and reports the outcome.
	Search(w World) Result
	// Reset clears per-run state (round counters, last-found positions)
	// so a Searcher can be reused across trials.
	Reset()
	// Kind identifies the algorithm.
	Kind() Kind
}

// New constructs a Searcher of the given kind for the process owning
// segment self in a pool with the given number of segments. The seed is
// used only by the random algorithm. It panics on an unknown kind or
// invalid geometry (these are programmer errors, not runtime conditions).
func New(kind Kind, self, segments int, seed uint64) Searcher {
	if segments < 1 {
		panic(fmt.Sprintf("search: segments = %d, need >= 1", segments))
	}
	if self < 0 || self >= segments {
		panic(fmt.Sprintf("search: self = %d out of [0,%d)", self, segments))
	}
	switch kind {
	case Linear:
		return NewLinearSearcher(self)
	case Random:
		return NewRandomSearcher(seed)
	case Tree:
		return NewTreeSearcher(self, segments)
	default:
		panic(fmt.Sprintf("search: unknown kind %d", int(kind)))
	}
}

// NumLeavesFor returns the tree leaf count for a segment count: the
// smallest power of two >= segments (the paper assumes a full tree).
func NumLeavesFor(segments int) int {
	l := 1
	for l < segments {
		l *= 2
	}
	return l
}

// NumTreeNodes returns the number of heap slots needed for a tree over the
// given segment count, including the unused slot 0.
func NumTreeNodes(segments int) int {
	return 2 * NumLeavesFor(segments)
}
