package core

// This file implements the paper's first suggested extension (Section 5):
// "how might concurrent pools be modified so that searching processors
// leave hints in the pool, and elements added by another processor can be
// directed to the searching process."
//
// Mechanism: every handle owns a one-slot mailbox. A searching process
// raises a "hungry" flag; Put/PutAll on another handle (when directed
// adds are enabled) consults the pool's Placement policy for how much of
// the batch to gift and delivers it straight into hungry processes'
// mailboxes instead of the local segment. The searcher notices the gift
// at its next abort-check and completes its remove without stealing.
// Mailboxes carry whole batches, so a PutAll can hand a starving
// consumer an entire reserve (policy.GiftAll), one element per searcher
// (policy.GiftOne), or any policy-chosen split; deliveries scan hungry
// searchers in hop-cost order — nearest ring first under the pool's
// topology, plain ring order from just past the giver's segment without
// one — so gifts spread around the near ring before a cross-cluster
// delivery is even considered. A gift is a remote write to the
// receiver's mailbox, so on a loosely-coupled machine a cross-cluster
// gift costs Far hops exactly like a cross-cluster steal; ranking makes
// it the last resort rather than a ring-position accident.

import (
	"sync/atomic"

	"pools/internal/numa"
	"pools/internal/policy"
)

// gift is a mailbox delivery: either a single element (batch nil — the
// Put fast path, which must not heap-allocate) or a batch slice owned by
// the mailbox once sent.
type gift[T any] struct {
	one   T
	batch []T // nil means the gift is the single element `one`
}

// count returns the number of elements carried.
func (g gift[T]) count() int {
	if g.batch != nil {
		return len(g.batch)
	}
	return 1
}

// elements returns every carried element as a slice (allocating for
// single-element gifts).
func (g gift[T]) elements() []T {
	if g.batch != nil {
		return g.batch
	}
	return []T{g.one}
}

// mailbox is a single-slot handoff for directed adds. A buffered channel
// of capacity 1 gives exactly the required semantics: non-blocking
// try-send by the giver, non-blocking try-receive by the owner. banked
// tracks the element count parked in the slot so Pool.Len stays cheap.
type mailbox[T any] struct {
	slot   chan gift[T]
	banked atomic.Int64
	hungry atomic.Bool
	_      pad
}

func (m *mailbox[T]) init() { m.slot = make(chan gift[T], 1) }

// tryGive attempts to hand g to this mailbox's owner; it reports whether
// it was delivered. The giver transfers ownership of g.batch.
func (m *mailbox[T]) tryGive(g gift[T]) bool {
	if !m.hungry.Load() {
		return false
	}
	n := int64(g.count())
	m.banked.Add(n)
	select {
	case m.slot <- g:
		return true
	default:
		m.banked.Add(-n)
		return false
	}
}

// tryTake removes a delivered gift, if any.
func (m *mailbox[T]) tryTake() (gift[T], bool) {
	select {
	case g := <-m.slot:
		m.banked.Add(-int64(g.count()))
		return g, true
	default:
		return gift[T]{}, false
	}
}

// giftOrders precomputes every giver's mailbox delivery order: all other
// segments ranked by hop distance under the topology (cross-cluster
// deliveries last), with ring order from the giver's successor as the
// tiebreak so equal-distance gifts still spread around the ring instead
// of piling onto one consumer. Computed once at pool construction
// (gifting placements on pools with a topology only — the topology-less
// ring scan needs no table), so deliveries walk a precomputed slice
// instead of consulting the topology per probe. The giver itself ranks
// first (Distance(g, g) == 0) and is dropped.
func giftOrders(n int, topo numa.Topology) [][]int {
	orders := make([][]int, n)
	for g := range orders {
		orders[g] = policy.RingRank(g, n, func(s int) int64 { return int64(topo.Distance(g, s)) })[1:]
	}
	return orders
}

// giftOut offers items to hungry searchers per the giver's placement
// plan: its Gift law picks how many elements to gift given the batch size
// and the number of currently-hungry processes, and the quota is split
// into near-even chunks delivered in the giver's hop-ranked order
// (giftOrders) — hungry searchers in the giver's own cluster are fed
// before a gift crosses a boundary. It returns the number of elements
// delivered; the caller adds the remainder to its local segment.
// Single-element chunks travel by value (no allocation — the Put fast
// path); larger chunks are copied, so the caller's backing array is never
// retained.
func (p *Pool[T]) giftOut(giver int, items []T) int {
	n := len(p.boxes)
	split := p.handles[giver].gift
	// Delivery order: the hop-ranked table when the pool has a topology,
	// otherwise the ring from the giver's successor, computed with
	// modular arithmetic (no table needed for the uniform case).
	var order []int
	if p.giftOrder != nil {
		order = p.giftOrder[giver]
	}
	target := func(j int) int {
		if order != nil {
			return order[j]
		}
		return (giver + 1 + j) % n
	}
	// Single-element fast path (Put): the split decision is binary —
	// gift or keep — so the first hungry box settles it without first
	// counting every hungry searcher on the ring, and delivery needs no
	// chunking or copying.
	if len(items) == 1 {
		for j := 0; j < n-1; j++ {
			t := target(j)
			b := &p.boxes[t]
			// A killed handle's abandoned search may leave its hungry
			// flag momentarily visible; the alive check keeps a gift
			// from landing in a mailbox nobody will ever empty.
			if !b.hungry.Load() || !p.members.Alive(t) {
				continue
			}
			if split(1, 1) < 1 {
				return 0 // placement keeps single adds local
			}
			if b.tryGive(gift[T]{one: items[0]}) {
				return 1
			}
		}
		return 0
	}
	hungry := 0
	for i := range p.boxes {
		if i != giver && p.boxes[i].hungry.Load() && p.members.Alive(i) {
			hungry++
		}
	}
	if hungry == 0 {
		return 0
	}
	quota := split(len(items), hungry)
	if quota <= 0 {
		return 0
	}
	if quota > len(items) {
		quota = len(items)
	}
	chunk := (quota + hungry - 1) / hungry
	delivered := 0
	for j := 0; j < n-1 && delivered < quota; j++ {
		t := target(j)
		b := &p.boxes[t]
		if !b.hungry.Load() || !p.members.Alive(t) {
			continue // don't build a chunk for a box that will refuse it
		}
		take := chunk
		if rem := quota - delivered; take > rem {
			take = rem
		}
		var g gift[T]
		if take == 1 {
			g = gift[T]{one: items[delivered]}
		} else {
			batch := make([]T, take)
			copy(batch, items[delivered:delivered+take])
			g = gift[T]{batch: batch}
		}
		if b.tryGive(g) {
			delivered += take
		}
	}
	return delivered
}

// giftsInFlight reports whether any mailbox holds a banked gift whose
// owner is still searching. Those elements are about to surface: the
// owner's next abort check ends its search with the gift, and any surplus
// is parked in its segment with a version bump. A covered search must
// therefore not certify emptiness while one exists. A gift stranded after
// its owner's search ended (the give/abort race the paper accepts) does
// not block: it surfaces on the owner's next remove.
func (p *Pool[T]) giftsInFlight() bool {
	for i := range p.boxes {
		if p.boxes[i].banked.Load() > 0 && p.boxes[i].hungry.Load() {
			return true
		}
	}
	return false
}
