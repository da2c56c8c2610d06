package ttt

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Node is one game-tree position in the parallel minimax computation.
// Nodes are the elements placed in the work list: "each position is placed
// in a pool when it is generated. Processors repeatedly pull a position
// from the pool and possibly generate new positions to put in the pool."
//
// A node carries its position's Board.Eval and Board.Winner. A child's
// are derived from its parent's when the child is generated, from the
// parent's move table entries for the lines through the cell just
// played; the root's are computed in full when it is expanded. Values
// are int32, which holds every one since |Eval| <= NumLines*WinScore <
// 2^31, and the small fields fill the padding, so the node is 48 bytes
// (TestNodeLayout).
//
// Only the root is allocated alone. An expansion takes a slab, a
// [Cells]Node array of about 3 KB, from a package-wide sync.Pool,
// zeroes its first k nodes, records it in kids and builds its k children
// there. The slab goes back to the pool, and kids to nil, in the resolve
// whose pending Add completes the node: with exactly-once delivery every
// child in the slab has resolved by then, each child's accesses precede
// its own Add, and the completing Add follows every sibling's. So a warm
// search allocates nothing. A zeroed node's value reads as
// startValue(ToMove), so the cleared slab needs no store per child for it.
//
// A duplicate delivery, which only a broken Source makes, can hand out a
// child after its parent completed, when its slab may already hold
// another expansion's children. What such a delivery then resolves into
// is not defined; see Evaluated.
type Node struct {
	Board  Board
	ToMove Player
	winner Player // Board.Winner()
	Depth  int8   // remaining expansion depth; 0 = evaluate statically
	eval   int32  // Board.Eval()

	parent *Node
	kids   *[Cells]Node // this node's child slab while its children are pending
	// pending holds, in its low pendingBits bits, the number of children
	// not yet resolved and, in the bits above, the number of leaf
	// children resolved so far. A leaf child resolves with one Add of
	// leafResolved, an internal child with Add(-1); the resolve that
	// zeroes the low bits hands the leaf count on to Engine.evaluated.
	pending atomic.Int32
	// value is the running max (X to move) or min (O to move), XORed
	// with startValue(ToMove) so that zero means no child yet.
	value atomic.Int32
}

// The layout of Node.pending. The low bits must hold Cells, the most
// children a node can have, and stay above it for a while after they
// wrap: a resolve that finds them above Cells is a child arriving after
// its parent completed, which only a duplicate delivery produces.
const (
	pendingBits  = 8
	pendingMask  = 1<<pendingBits - 1
	leafResolved = 1<<pendingBits - 1 // one leaf more, one child fewer pending
)

// Compile-time guard: Cells < pendingMask, so the low bits hold every
// child count and read above Cells once they wrap.
const _ uint = pendingMask - 1 - Cells

// yieldEvery is how many expansions, over all workers, pass between
// yields of the processor. A worker that never blocks enters the
// scheduler only when it is preempted, about every 10 ms. The yield once
// let the collector's mark worker in while the search allocated a slab
// per expansion; with slabs recycled the search barely allocates, and
// the yield stays because dropping it still raised tasktree's max RSS
// by one 128 KB step: in 6 alternating 10 s pairs (seed 42, 2 vCPUs)
// 3.11-3.23 MB with it against 3.23-3.36 MB without, higher in 5 pairs
// and equal in 1, while ops/s (31.5-39.0 M with, median 33.1 M;
// 32.9-36.9 M without, median 34.3 M) did not tell them apart.
const yieldEvery = 64

// slabs holds the free child slabs. sync.Pool keeps a free list per
// processor, so taking or returning a slab takes no lock, and a slab
// tends to stay with the processor that last used it.
var slabs = sync.Pool{New: func() any { return new([Cells]Node) }}

// Value returns the node's current minimax value. Only meaningful once the
// node has resolved.
func (n *Node) Value() int { return int(n.current()) }

// current decodes the running value.
func (n *Node) current() int32 { return n.value.Load() ^ startValue(n.ToMove) }

// applyChild folds a resolved child's value into this node's running
// max/min using a CAS loop (workers resolve children concurrently).
func (n *Node) applyChild(v int32) {
	max := n.ToMove == X
	start := startValue(n.ToMove)
	for {
		old := n.value.Load()
		if cur := old ^ start; max && v <= cur || !max && v >= cur {
			return
		}
		if n.value.CompareAndSwap(old, v^start) {
			return
		}
	}
}

// Source is one worker's view of the work list: a concurrent pool handle,
// a global stack, or their simulated counterparts. Get's false return
// means "nothing obtained right now" — the engine decides whether the
// computation is finished or the worker should retry.
type Source interface {
	Put(*Node)
	Get() (*Node, bool)
}

// Engine drives a parallel depth-limited minimax expansion. Workers share
// one Engine and each call Step with their own Source until Done.
type Engine struct {
	// done is polled on every Step by every worker, so it has a cache
	// line to itself, apart from the counters the workers Add to
	// (TestEngineLayout).
	done      atomic.Bool
	_         [63]byte
	expanded  atomic.Int64 // internal nodes expanded
	evaluated atomic.Int64 // leaf positions evaluated, added as each parent completes
	rootValue atomic.Int32
}

// NewEngine prepares the expansion of (board, toMove) to the given depth
// and places the root in seed. Depth must be >= 1; a depth above Cells
// searches as Cells, which changes no result, since a full board is a
// leaf.
func NewEngine(board Board, toMove Player, depth int, seed Source) *Engine {
	if depth < 1 {
		panic(fmt.Sprintf("ttt: NewEngine depth %d, want >= 1", depth))
	}
	seed.Put(newNode(board, toMove, int8(min(depth, Cells))))
	return &Engine{}
}

// newNode allocates a root; every other node lives in a slab.
func newNode(b Board, toMove Player, depth int8) *Node {
	return &Node{Board: b, ToMove: toMove, Depth: depth}
}

// startValue is the running value a node with toMove to move starts from:
// the identity of its max (X) or min (O).
func startValue(toMove Player) int32 {
	if toMove == X {
		return math.MinInt32
	}
	return math.MaxInt32
}

// Done reports whether the root has resolved.
func (e *Engine) Done() bool { return e.done.Load() }

// RootValue returns the minimax value of the root (valid once Done).
func (e *Engine) RootValue() int { return int(e.rootValue.Load()) }

// Evaluated returns the number of leaf positions evaluated — the paper's
// "board positions examined". A leaf is counted when its parent
// completes, so the count is exact once every delivered node has been
// processed (in particular once Done); mid-search it lags by the leaves
// whose parent is unresolved. A duplicate delivery, which only a broken
// Source makes, leaves the count other than the tree's, but by no fixed
// amount: a duplicate that arrives after its parent completed resolves
// whatever node its slab slot holds by then, which may be one leaf or a
// whole expansion, so a duplicated leaf or depth-1 node counts as 1 leaf
// or as that expansion's leaves depending on timing.
func (e *Engine) Evaluated() int64 { return e.evaluated.Load() }

// Positions returns all positions handled (internal + leaves); like
// Evaluated, it is exact once every delivered node has been processed.
func (e *Engine) Positions() int64 { return e.expanded.Load() + e.evaluated.Load() }

// Step retrieves one position from src and processes it: leaves are
// evaluated and their values propagated; internal positions generate their
// children into src. It returns false if src yielded nothing (the caller
// should check Done and otherwise retry).
func (e *Engine) Step(src Source) bool {
	n, ok := src.Get()
	if !ok {
		return false
	}
	e.Expand(n, src)
	return true
}

// Expand processes one node. Exposed separately so the simulator can
// charge the position-processing cost between Get and Expand.
//
// A won, depth-0 or full position is a leaf, valued from the node's
// carried Winner and Eval. Any other position puts one child per free
// cell, in ascending cell order. Each child is scored from n's move
// table, built once per expansion from n's 76 lines, so a child costs
// only the 4 or 7 table entries of its cell. The children share one
// slab from the pool, which resolve returns once n completes.
func (e *Engine) Expand(n *Node, src Source) {
	if n.parent == nil {
		n.eval, n.winner = int32(n.Board.Eval()), n.Board.Winner()
	}
	if w := n.winner; w != 0 || n.Depth == 0 {
		v := n.eval
		if w != 0 {
			v = int32(w) * WinScore
		}
		e.resolve(n, v, leafResolved)
		return
	}
	free := ^n.Board.Occupied()
	if free == 0 {
		e.resolve(n, n.eval, leafResolved)
		return
	}
	if e.expanded.Add(1)%yieldEvery == 0 {
		runtime.Gosched()
	}
	// n's fields are read before the slab is taken. A duplicate delivery
	// can hand out an n that lies in a free slab, even the one taken
	// here, and then n is cleared and overwritten by its own children;
	// the locals still give each child n's depth less one, so even that
	// search ends. They also spare the loop a reload of n per child.
	b, eval, depth := n.Board, n.eval, n.Depth-1
	t := b.moveTable(n.ToMove)
	toMove := n.ToMove.Opponent()
	slab := slabs.Get().(*[Cells]Node)
	kids := slab[:bits.OnesCount64(free)]
	clear(kids)
	n.kids = slab
	n.pending.Store(int32(len(kids)))
	for i := range kids {
		c := bits.TrailingZeros64(free)
		free &= free - 1
		child := &kids[i]
		child.Board, child.eval, child.winner = t.play(b, c, eval)
		child.ToMove, child.Depth, child.parent = toMove, depth, n
		src.Put(child)
	}
}

// resolve reports node n's final value v, propagating completion up the
// tree; resolving the root finishes the computation. delta is what n's
// resolution adds to its parent's pending word: leafResolved for a leaf,
// -1 for an internal node.
func (e *Engine) resolve(n *Node, v, delta int32) {
	for p := n.parent; p != nil; p = n.parent {
		p.applyChild(v)
		r := p.pending.Add(delta)
		if low := r & pendingMask; low != 0 {
			if low > Cells && delta == leafResolved {
				e.evaluated.Add(1) // p completed before this child arrived: a duplicate delivery
			}
			return
		}
		if leaves := r >> pendingBits; leaves != 0 {
			e.evaluated.Add(int64(leaves))
		}
		slabs.Put(p.kids) // every child of p has resolved
		p.kids = nil
		n, v, delta = p, p.current(), -1
	}
	if delta == leafResolved {
		e.evaluated.Add(1) // a leaf root
	}
	e.rootValue.Store(v)
	e.done.Store(true)
}
