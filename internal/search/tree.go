package search

import "fmt"

// TreeSearcher implements Manber's tree search algorithm as specified in
// Section 2.1 of the paper. A binary tree is superimposed on the segments,
// each segment occupying a leaf. Every tree node carries a round counter
// recording that the subtree below it has been traversed completely and
// found empty in all rounds up to and including that value. Each process
// keeps its own round counter (MyRound, initially 1; node counters start
// at 0) and the most recently visited leaf (LastLeaf).
//
// Walking up from an exhausted subtree at an internal node, with `child`
// the subtree it came from, the process:
//
//  1. descends into the sibling subtree when the sibling's counter is less
//     than its own round, jumping directly to the *matching descendant* —
//     the leaf in the sibling subtree symmetrically in the same position
//     as LastLeaf (Figure 1);
//  2. moves further up when the sibling's counter equals its round (at the
//     root it instead increments its round and restarts at its own leaf);
//  3. decides it is behind when a child's counter exceeds its round,
//     adopts the higher value, and restarts at its own leaf.
//
// The searcher operates on a TreeWorld, which owns the round-counter
// storage (so the two substrates can charge access costs and model the
// paper's per-node locking).
type TreeSearcher struct {
	self     int
	segments int
	leaves   int // power of two >= segments

	myRound  uint64
	lastLeaf int // heap index of the most recently visited leaf
	started  bool
}

// NewTreeSearcher returns a tree searcher for the process owning segment
// self in a pool with the given number of segments. If segments is not a
// power of two the tree is padded with permanently-empty phantom leaves
// (the paper assumes a full tree "for convenience").
func NewTreeSearcher(self, segments int) *TreeSearcher {
	leaves := NumLeavesFor(segments)
	return &TreeSearcher{
		self:     self,
		segments: segments,
		leaves:   leaves,
		myRound:  1,
		lastLeaf: leaves + self,
	}
}

var _ Searcher = (*TreeSearcher)(nil)

// Kind returns Tree.
func (t *TreeSearcher) Kind() Kind { return Tree }

// Reset restores the paper's initial state: MyRound = 1, next search
// starts at the process's own leaf.
func (t *TreeSearcher) Reset() {
	t.myRound = 1
	t.lastLeaf = t.leaves + t.self
	t.started = false
}

// MyRound exposes the process's round counter for tests and invariant
// checks.
func (t *TreeSearcher) MyRound() uint64 { return t.myRound }

// Search runs TreeSearch until a steal succeeds or the world aborts. The
// first search starts at the process's own leaf (TreeSearch(MyLeaf, nil));
// subsequent searches start at the last visited leaf
// (TreeSearch(LastLeaf, nil)), per Section 2.1.
func (t *TreeSearcher) Search(w World) Result {
	tw, ok := w.(TreeWorld)
	if !ok {
		panic(fmt.Sprintf("search: tree searcher requires a TreeWorld, got %T", w))
	}
	if tw.NumLeaves() != t.leaves {
		panic(fmt.Sprintf("search: world has %d leaves, searcher built for %d", tw.NumLeaves(), t.leaves))
	}
	myLeaf := t.leaves + t.self

	node := t.lastLeaf
	if !t.started {
		node = myLeaf
		t.started = true
	}
	// childHeight is the height of `child` when node is internal: the
	// subtree we most recently exhausted. At a leaf it is meaningless.
	child := 0
	childHeight := -1

	res := Result{FoundAt: -1}
	for !w.Aborted() {
		if node >= t.leaves { // leaf
			t.lastLeaf = node
			seg := node - t.leaves
			if seg < t.segments {
				got := w.TrySteal(seg)
				res.Examined++
				if got > 0 {
					res.Got = got
					res.FoundAt = seg
					return res
				}
			}
			// Leaf empty (or phantom): move up, remembering where we
			// came from. A 1-segment pool has the leaf as root; keep
			// re-probing until the world aborts.
			if node == 1 {
				continue
			}
			child = node
			childHeight = 0
			node >>= 1
			continue
		}

		// Internal node; child is the subtree we exhausted.
		left, right := 2*node, 2*node+1
		rl := tw.RoundOf(left)
		rr := tw.RoundOf(right)
		maxr := rl
		if rr > maxr {
			maxr = rr
		}
		if maxr > t.myRound {
			// Case 3: we are behind; adopt the newer round and restart
			// at our own leaf.
			t.myRound = maxr
			node = myLeaf
			continue
		}

		// Mark the exhausted child empty as of our round.
		tw.MaxRound(child, t.myRound)

		sibling := child ^ 1
		var siblingRound uint64
		if sibling == left {
			siblingRound = rl
		} else {
			siblingRound = rr
		}
		if siblingRound == t.myRound {
			// Case 2: sibling subtree marked empty as recently as ours.
			if node == 1 {
				// Whole tree empty this round: start a new round at our
				// own leaf.
				t.myRound++
				node = myLeaf
				continue
			}
			child = node
			childHeight++
			node >>= 1
			continue
		}

		// Case 1: descend into the sibling subtree, jumping directly to
		// the matching descendant of LastLeaf around this node.
		node = MatchingDescendant(t.lastLeaf, childHeight)
	}
	return res
}

// MatchingDescendant returns the leaf in the sibling subtree symmetrically
// in the same position as lastLeaf, where the subtree being left is rooted
// at lastLeaf's ancestor of the given height (0 = the leaf itself). In heap
// indexing this is lastLeaf with the height-th path bit flipped: the leaf
// reached by crossing to the sibling and keeping the same relative path.
func MatchingDescendant(lastLeaf, height int) int {
	return lastLeaf ^ (1 << uint(height))
}
