package search

import (
	"testing"
	"testing/quick"

	"pools/internal/rng"
)

func TestKindString(t *testing.T) {
	if Linear.String() != "linear" || Random.String() != "random" || Tree.String() != "tree" {
		t.Fatal("Kind names wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind string wrong")
	}
	if len(Kinds()) != 3 {
		t.Fatal("Kinds should list all three algorithms")
	}
}

func TestNumLeavesFor(t *testing.T) {
	cases := []struct{ segs, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16}, {16, 16}, {17, 32},
	}
	for _, c := range cases {
		if got := NumLeavesFor(c.segs); got != c.want {
			t.Errorf("NumLeavesFor(%d) = %d, want %d", c.segs, got, c.want)
		}
		if got := NumTreeNodes(c.segs); got != 2*c.want {
			t.Errorf("NumTreeNodes(%d) = %d, want %d", c.segs, got, 2*c.want)
		}
	}
}

func TestNewFactory(t *testing.T) {
	for _, k := range Kinds() {
		s := New(k, 3, 16, 1)
		if s.Kind() != k {
			t.Errorf("New(%v).Kind() = %v", k, s.Kind())
		}
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	cases := []func(){
		func() { New(Linear, 0, 0, 1) },
		func() { New(Linear, -1, 4, 1) },
		func() { New(Linear, 4, 4, 1) },
		func() { New(Kind(0), 0, 4, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLinearFindsNextNonEmpty(t *testing.T) {
	w := newFakeWorld(0, 16)
	w.fill(map[int]int{5: 10})
	s := NewLinearSearcher(0)
	res := s.Search(w)
	if res.Aborted() {
		t.Fatal("search aborted")
	}
	if res.FoundAt != 5 {
		t.Fatalf("FoundAt = %d, want 5", res.FoundAt)
	}
	// Probes 0 (self), 1, 2, 3, 4, 5 = 6 probes.
	if res.Examined != 6 {
		t.Fatalf("Examined = %d, want 6", res.Examined)
	}
	if res.Got != 5 {
		t.Fatalf("Got = %d, want 5 (half of 10)", res.Got)
	}
	if w.segs[0].Len() != 5 || w.segs[5].Len() != 5 {
		t.Fatalf("elements not moved: self=%d remote=%d", w.segs[0].Len(), w.segs[5].Len())
	}
}

func TestLinearStartsAtLastFound(t *testing.T) {
	w := newFakeWorld(0, 16)
	w.fill(map[int]int{5: 10})
	s := NewLinearSearcher(0)
	s.Search(w)
	// Empty self again and put elements at 5 once more: next search should
	// begin exactly at 5 (self holds 5 elements from the steal).
	w.segs[0].TakeInto(&w.segs[5], 5)
	w.probeLog = nil
	res := s.Search(w)
	if res.FoundAt != 5 || res.Examined != 1 {
		t.Fatalf("resumed search: FoundAt=%d Examined=%d, want 5,1", res.FoundAt, res.Examined)
	}
	if w.probeLog[0] != 5 {
		t.Fatalf("first probe at %d, want 5", w.probeLog[0])
	}
}

func TestLinearWrapsRing(t *testing.T) {
	w := newFakeWorld(10, 16)
	w.fill(map[int]int{2: 4})
	s := NewLinearSearcher(10)
	res := s.Search(w)
	if res.FoundAt != 2 {
		t.Fatalf("FoundAt = %d, want 2", res.FoundAt)
	}
	// 10,11,12,13,14,15,0,1,2 = 9 probes.
	if res.Examined != 9 {
		t.Fatalf("Examined = %d, want 9", res.Examined)
	}
}

func TestLinearAbortsOnEmptyPool(t *testing.T) {
	w := newFakeWorld(0, 8)
	w.probeBudget = 100
	s := NewLinearSearcher(0)
	res := s.Search(w)
	if !res.Aborted() || res.FoundAt != -1 {
		t.Fatalf("expected abort, got %+v", res)
	}
	if res.Examined == 0 {
		t.Fatal("aborted search should still report probes")
	}
}

func TestLinearVisitsAllWithinOneLap(t *testing.T) {
	// Property: starting anywhere, an element in any segment is found
	// within Segments() probes.
	f := func(selfRaw, targetRaw uint8) bool {
		const n = 16
		self := int(selfRaw) % n
		target := int(targetRaw) % n
		w := newFakeWorld(self, n)
		w.fill(map[int]int{target: 3})
		s := NewLinearSearcher(self)
		res := s.Search(w)
		return !res.Aborted() && res.FoundAt == target && res.Examined <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearReset(t *testing.T) {
	w := newFakeWorld(3, 8)
	w.fill(map[int]int{6: 2})
	s := NewLinearSearcher(3)
	s.Search(w)
	s.Reset()
	w2 := newFakeWorld(3, 8)
	w2.fill(map[int]int{6: 2})
	res := s.Search(w2)
	// After reset the search starts at self (3): probes 3,4,5,6.
	if res.Examined != 4 {
		t.Fatalf("Examined after reset = %d, want 4", res.Examined)
	}
}

func TestRandomFindsElement(t *testing.T) {
	w := newFakeWorld(0, 16)
	w.fill(map[int]int{9: 8})
	s := NewRandomSearcher(42)
	res := s.Search(w)
	if res.Aborted() || res.FoundAt != 9 {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.Got != 4 {
		t.Fatalf("Got = %d, want 4", res.Got)
	}
}

func TestRandomDeterministicAfterReset(t *testing.T) {
	run := func(s *RandomSearcher) []int {
		w := newFakeWorld(0, 16)
		w.fill(map[int]int{13: 2})
		s.Search(w)
		return w.probeLog
	}
	s := NewRandomSearcher(7)
	first := run(s)
	s.Reset()
	second := run(s)
	if len(first) != len(second) {
		t.Fatalf("probe counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("probe %d differs: %d vs %d", i, first[i], second[i])
		}
	}
}

func TestRandomAborts(t *testing.T) {
	w := newFakeWorld(0, 8)
	w.probeBudget = 50
	s := NewRandomSearcher(1)
	res := s.Search(w)
	if !res.Aborted() {
		t.Fatal("expected abort on empty pool")
	}
}

func TestRandomProbesCoverAllSegments(t *testing.T) {
	// Over many aborted searches the random algorithm should touch every
	// segment (uniformity smoke test).
	w := newFakeWorld(0, 16)
	w.probeBudget = 4000
	s := NewRandomSearcher(99)
	s.Search(w)
	seen := map[int]bool{}
	for _, p := range w.probeLog {
		seen[p] = true
	}
	if len(seen) != 16 {
		t.Fatalf("random probes visited only %d/16 segments", len(seen))
	}
}

func TestMatchingDescendant(t *testing.T) {
	// 16 leaves: heap indices 16..31.
	cases := []struct{ leaf, height, want int }{
		{16, 0, 17}, // flip within pair
		{17, 0, 16},
		{16, 1, 18}, // cross to the adjacent pair, same offset
		{19, 1, 17},
		{16, 2, 20},
		{23, 2, 19},
		{16, 3, 24}, // cross the tree's midline
		{31, 3, 23},
	}
	for _, c := range cases {
		if got := MatchingDescendant(c.leaf, c.height); got != c.want {
			t.Errorf("MatchingDescendant(%d,%d) = %d, want %d", c.leaf, c.height, got, c.want)
		}
	}
}

func TestMatchingDescendantProperties(t *testing.T) {
	f := func(leafRaw, heightRaw uint8) bool {
		const leaves = 16
		leaf := leaves + int(leafRaw)%leaves
		height := int(heightRaw) % 4 // heights 0..3 valid for 16 leaves
		m := MatchingDescendant(leaf, height)
		// Involution.
		if MatchingDescendant(m, height) != leaf {
			return false
		}
		// Still a leaf.
		if m < leaves || m >= 2*leaves {
			return false
		}
		// The ancestors at height+1 coincide; the ancestors at height differ.
		if m>>(uint(height)+1) != leaf>>(uint(height)+1) {
			return false
		}
		return m>>uint(height) == (leaf>>uint(height))^1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTreeFindsSibling(t *testing.T) {
	w := newFakeWorld(0, 16)
	w.fill(map[int]int{1: 6})
	s := NewTreeSearcher(0, 16)
	res := s.Search(w)
	if res.Aborted() || res.FoundAt != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.Got != 3 {
		t.Fatalf("Got = %d, want 3", res.Got)
	}
	// Own leaf then sibling leaf: 2 probes.
	if res.Examined != 2 {
		t.Fatalf("Examined = %d, want 2", res.Examined)
	}
}

func TestTreeFindsDistantSegment(t *testing.T) {
	w := newFakeWorld(0, 16)
	w.fill(map[int]int{15: 40})
	s := NewTreeSearcher(0, 16)
	res := s.Search(w)
	if res.Aborted() || res.FoundAt != 15 {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.Got != 20 {
		t.Fatalf("Got = %d, want 20", res.Got)
	}
}

func TestTreeExaminesFewerSegmentsThanLinearWhenMarked(t *testing.T) {
	// After one full empty round the tree's counters steer the searcher;
	// the paper observes "the tree algorithm ... examines many fewer
	// segments in the course of a steal".
	const n = 16
	wTree := newFakeWorld(0, n)
	wTree.probeBudget = 200
	tr := NewTreeSearcher(0, n)
	tr.Search(wTree) // aborted; counters now mark empty subtrees
	wTree.aborted = false
	wTree.probeBudget = 0
	wTree.fill(map[int]int{8: 10})
	resTree := tr.Search(wTree)
	if resTree.Aborted() {
		t.Fatal("tree search aborted unexpectedly")
	}
	if resTree.Examined > n {
		t.Fatalf("tree examined %d segments, want <= %d", resTree.Examined, n)
	}
}

func TestTreeAbortsOnEmptyPool(t *testing.T) {
	w := newFakeWorld(3, 16)
	w.probeBudget = 500
	s := NewTreeSearcher(3, 16)
	res := s.Search(w)
	if !res.Aborted() {
		t.Fatal("expected abort")
	}
	if s.MyRound() < 2 {
		t.Fatalf("MyRound = %d; full empty traversals should advance rounds", s.MyRound())
	}
}

func TestTreeRoundsMonotone(t *testing.T) {
	w := newFakeWorld(0, 8)
	w.probeBudget = 300
	s := NewTreeSearcher(0, 8)
	prev := make([]uint64, len(w.rounds))
	// Wrap MaxRound to check monotonicity on every write.
	s.Search(w)
	for i, r := range w.rounds {
		if r < prev[i] {
			t.Fatalf("node %d round decreased", i)
		}
	}
	// A searcher's round never exceeds max node round + 1.
	var maxNode uint64
	for _, r := range w.rounds {
		if r > maxNode {
			maxNode = r
		}
	}
	if s.MyRound() > maxNode+1 {
		t.Fatalf("MyRound %d > max node round %d + 1", s.MyRound(), maxNode)
	}
}

func TestTreeCase3AdoptsNewerRound(t *testing.T) {
	w := newFakeWorld(0, 4)
	// Another process already marked the right half empty through round 5.
	// Searcher 0 exhausts the (actually empty) left half, reaches the root,
	// sees the sibling's round 5 > its own round 1, and must adopt it
	// (case 3) before eventually finding the elements hidden in segment 2.
	w.rounds[3] = 5 // right child of root
	w.fill(map[int]int{2: 2})
	s := NewTreeSearcher(0, 4)
	res := s.Search(w)
	if res.Aborted() {
		t.Fatal("aborted")
	}
	if s.MyRound() < 5 {
		t.Fatalf("MyRound = %d, want >= 5 (adopted from marked sibling)", s.MyRound())
	}
	if res.FoundAt != 2 {
		t.Fatalf("FoundAt = %d, want 2", res.FoundAt)
	}
}

func TestTreeSingleSegmentPool(t *testing.T) {
	w := newFakeWorld(0, 1)
	w.probeBudget = 10
	s := NewTreeSearcher(0, 1)
	res := s.Search(w)
	if !res.Aborted() {
		t.Fatal("expected abort on 1-segment empty pool")
	}
	w2 := newFakeWorld(0, 1)
	w2.fill(map[int]int{0: 3})
	s.Reset()
	res = s.Search(w2)
	if res.Aborted() || res.Got != 3 || res.FoundAt != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestTreeNonPowerOfTwoSegments(t *testing.T) {
	// 5 segments pad to 8 leaves; phantom leaves must never be probed.
	w := newFakeWorld(0, 5)
	w.fill(map[int]int{4: 9})
	s := NewTreeSearcher(0, 5)
	res := s.Search(w)
	if res.Aborted() || res.FoundAt != 4 {
		t.Fatalf("unexpected result %+v", res)
	}
	for _, p := range w.probeLog {
		if p >= 5 {
			t.Fatalf("probed phantom segment %d", p)
		}
	}
}

func TestTreeRequiresTreeWorld(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-TreeWorld")
		}
	}()
	s := NewTreeSearcher(0, 4)
	s.Search(plainWorld{})
}

type plainWorld struct{}

func (plainWorld) Segments() int    { return 4 }
func (plainWorld) Self() int        { return 0 }
func (plainWorld) TrySteal(int) int { return 0 }
func (plainWorld) Aborted() bool    { return true }

func TestTreeResetRestoresInitialState(t *testing.T) {
	s := NewTreeSearcher(2, 16)
	w := newFakeWorld(2, 16)
	w.probeBudget = 100
	s.Search(w)
	s.Reset()
	if s.MyRound() != 1 {
		t.Fatalf("MyRound after Reset = %d, want 1", s.MyRound())
	}
	// After reset the first probe must be the process's own leaf.
	w2 := newFakeWorld(2, 16)
	w2.fill(map[int]int{2: 1})
	res := s.Search(w2)
	if res.Examined != 1 || res.FoundAt != 2 {
		t.Fatalf("first search after reset: %+v", res)
	}
}

// Cross-algorithm property: every algorithm finds the single non-empty
// segment (no aborts) and conserves elements.
func TestAllAlgorithmsFindAndConserve(t *testing.T) {
	f := func(selfRaw, targetRaw uint8, amountRaw uint8, kindRaw uint8) bool {
		const n = 16
		self := int(selfRaw) % n
		target := int(targetRaw) % n
		amount := int(amountRaw)%40 + 1
		kind := Kinds()[int(kindRaw)%3]
		w := newFakeWorld(self, n)
		w.fill(map[int]int{target: amount})
		before := w.total()
		s := New(kind, self, n, uint64(selfRaw)*7+1)
		res := s.Search(w)
		if res.Aborted() {
			return false
		}
		if w.total() != before {
			return false
		}
		if res.FoundAt != target && target != self {
			// Only the target had elements, so it must be found there
			// (if target == self the search may report self).
			return false
		}
		want := amount
		if target != self {
			want = (amount + 1) / 2
		}
		return res.Got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The tree steers searchers away from empty subtrees: with half the tree
// permanently empty and marked, repeated searches probe fewer segments
// than a full lap.
func TestTreeSteeringReducesProbes(t *testing.T) {
	const n = 16
	w := newFakeWorld(0, n)
	s := NewTreeSearcher(0, n)
	// Segment 15 refills forever; everything else stays empty.
	total := 0
	for trial := 0; trial < 20; trial++ {
		w.fill(map[int]int{15: 2})
		res := s.Search(w)
		if res.Aborted() {
			t.Fatal("aborted")
		}
		// Drain self for next iteration.
		for !w.segs[0].Empty() {
			w.segs[0].Remove()
		}
		total += res.Examined
	}
	avg := float64(total) / 20
	if avg > float64(n) {
		t.Fatalf("tree averaged %.1f probes per steal, want <= %d", avg, n)
	}
}

func BenchmarkLinearSearch16(b *testing.B) {
	w := newFakeWorld(0, 16)
	s := NewLinearSearcher(0)
	for i := 0; i < b.N; i++ {
		w.fill(map[int]int{15: 2})
		s.Search(w)
	}
}

func BenchmarkRandomSearch16(b *testing.B) {
	w := newFakeWorld(0, 16)
	s := NewRandomSearcher(1)
	for i := 0; i < b.N; i++ {
		w.fill(map[int]int{15: 2})
		s.Search(w)
	}
}

func BenchmarkTreeSearch16(b *testing.B) {
	w := newFakeWorld(0, 16)
	s := NewTreeSearcher(0, 16)
	for i := 0; i < b.N; i++ {
		w.fill(map[int]int{15: 2})
		s.Search(w)
	}
}

var _ = rng.Mix // keep import for potential future use
