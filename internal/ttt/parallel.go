package ttt

import (
	"math"
	"sync/atomic"
)

// Node is one game-tree position in the parallel minimax computation.
// Nodes are the elements placed in the work list: "each position is placed
// in a pool when it is generated. Processors repeatedly pull a position
// from the pool and possibly generate new positions to put in the pool."
//
// A node carries its position's Board.Eval and Board.Winner. A child's
// are derived from its parent's when the child is generated, over only
// the lines through the cell just played; the root's are computed in
// full when it is expanded. Values are int32, which holds every one since
// |Eval| <= NumLines*WinScore < 2^31, and the small fields fill the
// padding, so the node fits the 48-byte size class (TestNodeLayout).
type Node struct {
	Board  Board
	ToMove Player
	winner Player // Board.Winner()
	eval   int32  // Board.Eval()
	Depth  int    // remaining expansion depth; 0 = evaluate statically

	parent  *Node
	pending atomic.Int32 // children not yet resolved
	value   atomic.Int32 // running max (X to move) or min (O to move)
}

// Value returns the node's current minimax value. Only meaningful once the
// node has resolved.
func (n *Node) Value() int { return int(n.value.Load()) }

// applyChild folds a resolved child's value into this node's running
// max/min using a CAS loop (workers resolve children concurrently).
func (n *Node) applyChild(v int32) {
	max := n.ToMove == X
	for {
		cur := n.value.Load()
		if max && v <= cur || !max && v >= cur {
			return
		}
		if n.value.CompareAndSwap(cur, v) {
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
	root *Node

	done      atomic.Bool
	expanded  atomic.Int64 // internal nodes expanded
	evaluated atomic.Int64 // leaf positions evaluated
	rootValue atomic.Int32
}

// NewEngine prepares the expansion of (board, toMove) to the given depth
// and places the root in seed. Depth must be >= 1.
func NewEngine(board Board, toMove Player, depth int, seed Source) *Engine {
	e := &Engine{}
	e.root = newNode(board, toMove, depth, nil)
	seed.Put(e.root)
	return e
}

func newNode(b Board, toMove Player, depth int, parent *Node) *Node {
	n := &Node{Board: b, ToMove: toMove, Depth: depth, parent: parent}
	if toMove == X {
		n.value.Store(math.MinInt32)
	} else {
		n.value.Store(math.MaxInt32)
	}
	return n
}

// Done reports whether the root has resolved.
func (e *Engine) Done() bool { return e.done.Load() }

// RootValue returns the minimax value of the root (valid once Done).
func (e *Engine) RootValue() int { return int(e.rootValue.Load()) }

// Expanded returns the number of internal nodes expanded so far.
func (e *Engine) Expanded() int64 { return e.expanded.Load() }

// Evaluated returns the number of leaf positions evaluated so far — the
// paper's "board positions examined".
func (e *Engine) Evaluated() int64 { return e.evaluated.Load() }

// Positions returns all positions handled (internal + leaves).
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
// cell, each scored incrementally from n (Board.playScored), so no
// position but the root is ever scanned over all 76 lines.
func (e *Engine) Expand(n *Node, src Source) {
	if n.parent == nil {
		n.eval, n.winner = int32(n.Board.Eval()), n.Board.Winner()
	}
	if w := n.winner; w != 0 || n.Depth == 0 {
		v := n.eval
		if w != 0 {
			v = int32(w) * WinScore
		}
		e.evaluated.Add(1)
		e.resolve(n, v)
		return
	}
	moves := n.Board.Moves(make([]int, 0, Cells))
	if len(moves) == 0 {
		e.evaluated.Add(1)
		e.resolve(n, n.eval)
		return
	}
	e.expanded.Add(1)
	n.pending.Store(int32(len(moves)))
	for _, m := range moves {
		b, eval, w := n.Board.playScored(m, n.ToMove, int(n.eval))
		child := newNode(b, n.ToMove.Opponent(), n.Depth-1, n)
		child.eval, child.winner = int32(eval), w
		src.Put(child)
	}
}

// resolve reports node n's final value v, propagating completion up the
// tree; resolving the root finishes the computation.
func (e *Engine) resolve(n *Node, v int32) {
	for {
		if n.parent == nil {
			e.rootValue.Store(v)
			e.done.Store(true)
			return
		}
		p := n.parent
		p.applyChild(v)
		if p.pending.Add(-1) != 0 {
			return
		}
		n, v = p, p.value.Load()
	}
}
