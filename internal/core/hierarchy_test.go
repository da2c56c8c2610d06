package core

import (
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
)

// TestThreeRingEscalationOrder pins the escalation ladder on a
// deeper-than-two-level machine: 8 segments as 2-processor boards inside
// a 4-processor cabinet (numa.NestedClusters{Inner: 2, Outer: 4}), so
// handle 0's ladder is board {0,1} → cabinet ring {2,3} → far ring
// {4..7}. A search must exhaust each ring — one full fruitless pass, the
// structural threshold — before admitting the next, so with elements in
// both the cabinet ring and the far ring the steal lands on the cabinet,
// and only once the cabinet is dry does a search cross to the far ring.
// The probe counts are exact: the ladder's shape is the assertion.
func TestThreeRingEscalationOrder(t *testing.T) {
	topo := numa.NestedClusters{Inner: 2, Outer: 4}
	p, err := New[int](Options{
		Segments:     8,
		Policies:     policy.Set{Order: policy.HierarchicalOrder{Topo: topo}},
		Topology:     topo,
		CollectStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Handle(3).Put(30) // cabinet ring (hop distance 2 from handle 0)
	p.Handle(6).Put(60) // far ring (hop distance 4)

	h := p.Handle(0)
	// Ring 0 is {0,1}: two fruitless probes escalate to the cabinet ring,
	// where probes 2 (empty) and 3 succeed — 4 probes, and the steal must
	// take the cabinet's element even though the far ring also has one.
	v, ok := h.Get()
	if !ok || v != 30 {
		t.Fatalf("first Get = %d, %v; want the cabinet-ring element 30", v, ok)
	}
	st := h.Stats()
	if st.Steals != 1 || st.SegmentsExamined.Sum() != 4 {
		t.Fatalf("first steal examined %.0f segments over %d steals, want 4 over 1 (board pass then cabinet)",
			st.SegmentsExamined.Sum(), st.Steals)
	}

	// With the cabinet dry the ladder must climb all three rings: board
	// pass (0,1), cabinet frontier pass (2,3 then 0,1 again — the
	// admitted frontier is four wide), then the far ring (4, 5, 6) —
	// 9 probes ending at segment 6.
	v, ok = h.Get()
	if !ok || v != 60 {
		t.Fatalf("second Get = %d, %v; want the far-ring element 60", v, ok)
	}
	st = h.Stats()
	if st.Steals != 2 || st.SegmentsExamined.Sum() != 4+9 {
		t.Fatalf("second steal brought examined to %.0f over %d steals, want 13 over 2 (board, cabinet lap, far ring)",
			st.SegmentsExamined.Sum(), st.Steals)
	}
}

// TestGiftRankedByHopCost pins the hierarchy-aware directed-add order on
// a two-cluster topology: gifts go to hungry searchers in the giver's own
// cluster before any cross-cluster mailbox, even when the ring order
// would reach the cross-cluster searcher first.
func TestGiftRankedByHopCost(t *testing.T) {
	p, err := New[int](Options{
		Segments: 8,
		Policies: policy.Set{Place: policy.GiftAll{}},
		Topology: numa.Clusters{Size: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Giver 3's cluster is {2,3}. Handle 4 is the giver's ring successor
	// but lives across the boundary; handle 2 is ring-last but one hop.
	p.boxes[4].hungry.Store(true)
	p.boxes[2].hungry.Store(true)

	if got := p.giftOut(3, []int{42}); got != 1 {
		t.Fatalf("giftOut delivered %d, want 1", got)
	}
	g, ok := p.boxes[2].tryTake()
	if !ok || g.elements()[0] != 42 {
		t.Fatalf("near mailbox got (%v, %v), want the single gift 42", g, ok)
	}
	if _, ok := p.boxes[4].tryTake(); ok {
		t.Fatal("cross-cluster mailbox received the gift over a hungry near searcher")
	}

	// A batch splits near-first too: quota 3 over two hungry searchers is
	// chunked ceil(3/2)=2, and the near mailbox must get the first chunk.
	p.boxes[4].hungry.Store(true)
	p.boxes[2].hungry.Store(true)
	if got := p.giftOut(3, []int{1, 2, 3}); got != 3 {
		t.Fatalf("batch giftOut delivered %d, want 3", got)
	}
	g, ok = p.boxes[2].tryTake()
	if !ok || g.count() != 2 {
		t.Fatalf("near mailbox got %d elements, want the first chunk of 2", g.count())
	}
	g, ok = p.boxes[4].tryTake()
	if !ok || g.count() != 1 || g.elements()[0] != 3 {
		t.Fatalf("cross mailbox got (%v, %v), want the leftover element 3", g, ok)
	}
}

// TestGiftRingOrderWithoutTopology checks the topology-less delivery
// order is the original ring scan from the giver's successor, so pools
// without hop structure keep the paper's spread-around-the-ring behavior.
func TestGiftRingOrderWithoutTopology(t *testing.T) {
	p, err := New[int](Options{Segments: 4, Policies: policy.Set{Place: policy.GiftAll{}}})
	if err != nil {
		t.Fatal(err)
	}
	p.boxes[0].hungry.Store(true)
	p.boxes[2].hungry.Store(true)
	if got := p.giftOut(1, []int{7}); got != 1 {
		t.Fatalf("giftOut delivered %d, want 1", got)
	}
	if _, ok := p.boxes[2].tryTake(); !ok {
		t.Fatal("ring order from giver 1 should reach hungry box 2 before box 0")
	}
}
