package search

import (
	"testing"
)

// Exhaustive model check: for every non-empty occupancy pattern of a small
// pool, every starting segment, and every algorithm, a search must find an
// element without aborting, conserve the total, and touch at most a
// bounded number of segments.
func TestExhaustiveSmallPools(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		for mask := 1; mask < 1<<uint(n); mask++ {
			for self := 0; self < n; self++ {
				for _, kind := range Kinds() {
					w := newFakeWorld(self, n)
					total := 0
					for s := 0; s < n; s++ {
						if mask&(1<<uint(s)) != 0 {
							amount := 2 + s // distinct sizes catch split bugs
							w.fill(map[int]int{s: amount})
							total += amount
						}
					}
					searcher := New(kind, self, n, 77)
					res := searcher.Search(w)
					if res.Aborted() {
						t.Fatalf("n=%d mask=%b self=%d %v: aborted with elements present",
							n, mask, self, kind)
					}
					if w.total() != total {
						t.Fatalf("n=%d mask=%b self=%d %v: conservation broken: %d != %d",
							n, mask, self, kind, w.total(), total)
					}
					if mask&(1<<uint(res.FoundAt)) == 0 {
						t.Fatalf("n=%d mask=%b self=%d %v: found at empty segment %d",
							n, mask, self, kind, res.FoundAt)
					}
					// Linear visits each segment at most once per lap and
					// must succeed within one lap here.
					if kind == Linear && res.Examined > n {
						t.Fatalf("n=%d mask=%b self=%d: linear examined %d > %d",
							n, mask, self, res.Examined, n)
					}
				}
			}
		}
	}
}

// Repeated searches against a refilling world: per-search state (rounds,
// last-found) must never wedge an algorithm across many configurations.
func TestRepeatedSearchesNeverWedge(t *testing.T) {
	const n = 8
	for _, kind := range Kinds() {
		w := newFakeWorld(3, n)
		s := New(kind, 3, n, 5)
		for round := 0; round < 200; round++ {
			target := (round * 5) % n
			amount := round%7 + 1
			w.fill(map[int]int{target: amount})
			res := s.Search(w)
			if res.Aborted() {
				t.Fatalf("%v wedged at round %d (target %d)", kind, round, target)
			}
			// Drain for the next round.
			for !w.segs[3].Empty() {
				w.segs[3].Remove()
			}
			for !w.segs[res.FoundAt].Empty() {
				w.segs[res.FoundAt].Remove()
			}
		}
	}
}

// Two tree searchers sharing one world interleave arbitrarily; tree round
// counters must stay monotone and both searchers must keep finding
// elements.
func TestInterleavedTreeSearchers(t *testing.T) {
	const n = 8
	w := newFakeWorld(0, n)
	a := NewTreeSearcher(0, n)
	b := NewTreeSearcher(5, n)
	prev := make([]uint64, len(w.rounds))
	for round := 0; round < 100; round++ {
		w.fill(map[int]int{(round*3 + 1) % n: 4})
		var res Result
		if round%2 == 0 {
			res = a.Search(w)
		} else {
			w.self = 5
			res = b.Search(w)
			w.self = 0
		}
		if res.Aborted() {
			t.Fatalf("round %d aborted", round)
		}
		for i, r := range w.rounds {
			if r < prev[i] {
				t.Fatalf("round %d: node %d counter decreased %d -> %d", round, i, prev[i], r)
			}
			prev[i] = r
		}
		for i := range w.segs {
			for !w.segs[i].Empty() {
				w.segs[i].Remove()
			}
		}
	}
}

// A searcher's round counter never exceeds the maximum node round + 1,
// checked across many empty traversals.
func TestTreeRoundInvariantAcrossAborts(t *testing.T) {
	const n = 4
	w := newFakeWorld(1, n)
	s := NewTreeSearcher(1, n)
	for trial := 0; trial < 50; trial++ {
		w.aborted = false
		w.probes = 0
		w.probeBudget = 20 + trial
		s.Search(w) // aborts; rounds advance
		var maxNode uint64
		for _, r := range w.rounds {
			if r > maxNode {
				maxNode = r
			}
		}
		if s.MyRound() > maxNode+1 {
			t.Fatalf("trial %d: MyRound %d > max node round %d + 1", trial, s.MyRound(), maxNode)
		}
	}
}
