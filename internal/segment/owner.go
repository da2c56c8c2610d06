package segment

import (
	"sync"
	"sync/atomic"
)

// OwnerDeque is a concurrent segment with a lock-free owner path, the
// CAS-era successor to the mutex-guarded Deque the paper's protocol was
// built on. One designated goroutine — the segment's owner — pushes and
// pops at the bottom of a power-of-two ring with plain slot stores
// published by sequentially-consistent index stores and no lock; thieves
// serialize on the segment lock and claim a whole batch at the top with
// one compare-and-swap: the lock IS the steal path, exactly the lock +
// TakeOut reserve-transfer discipline the pools already use, now paid
// only by thieves. Non-owner adds (directed placements, kill-time
// redistribution, seeding) land in a lock-guarded overflow Deque that
// the owner migrates into its ring when the ring runs dry, so a foreign
// add never touches the owner's bottom index.
//
// # Memory-ordering argument
//
// Elements live at ring indices [top, bottom); slot i is buf[i&(cap-1)].
// bottom is written only by the owner; top is written by thieves under
// mu and by the owner's lock-free last-element CAS. All index accesses
// go through sync/atomic, which Go guarantees sequentially consistent,
// so both sides can run the classic claim-then-validate handshake:
//
//   - a thief (holding mu) reads t = top and b = bottom, claims the batch
//     [t, t+m), m = min(k, b-t), with one CompareAndSwap(top, t, t+m),
//     then validates against a fresh bottom b2. If b2 < t+m the owner's
//     pops won the slots [b2, t+m); the thief keeps [t, b2) and stores
//     top = b2, handing the rest back.
//   - the owner claims slot b-1 by storing bottom = b-1, then validates
//     top < b-1. On top == b-1 exactly (one element left) it tries
//     CompareAndSwap(top, b-1, b) itself — claims are CASes on both
//     sides, so exactly one party wins the final slot — provided no
//     steal claim section is in flight (claimFrom == 0, below). Any other
//     boundary, including a top the thief's batch CAS pushed past b-1,
//     goes through mu, by which time the thief has committed or handed
//     its losing range back, and re-checks — so every slot goes to
//     exactly one side and a handed-back range strands nothing.
//
// Because both sides publish their claim before validating, for every
// contested slot at least one side observes the other (SC total order):
// an owner pop whose top load precedes the batch CAS stored its bottom
// earlier still, so the thief's validation sees it; one whose top load
// follows the CAS sees the inflated top and resolves under mu. While a
// thief holds mu the owner cannot pop below the section's starting top
// (its pop of that slot would see top >= it and block on mu), so b2 >= t.
//
// Plain slot accesses are race-free by two rules. First, thieves read a
// slot only after a validated claim, and the slot's value was published
// by the owner's SC bottom store, which the thief's bottom load acquired.
// Second, the owner reuses a slot (ring wraparound) only after every
// foreign access to it is happens-before-ordered: lock-free pushes keep
// occupancy at or below cap-2 against a reuse floor (one free slot of
// margin), and the floor is not top alone. A thief's batch CAS publishes
// top = t+m BEFORE the thief reads and zeroes the slots [t, t+m), so an
// owner that acquired the inflated top has not acquired those slot
// accesses; and the hand-back store can lower top again after the owner
// read it. So each section publishes claimFrom = 1 + top (taken under
// mu, before its first claim; cleared before unlock, after its slot
// work), and the floor is the minimum of top and every nonzero
// claimFrom-1 the owner sees in a claimFrom, top, claimFrom load
// sequence (reuseFloor):
//
//   - a section active at either claimFrom load caps the floor at its
//     starting top, at or below every slot it can touch and every value
//     its hand-back can store;
//   - a section that starts and ends between the two claimFrom loads is
//     ordered entirely before the owner by its clearing store, which the
//     second load acquires, and it handed nothing back: a hand-back
//     needs an owner pop between the claim and the validation, and the
//     owner was inside this push, so the top it loaded never drops;
//   - earlier sections are ordered by the mutex chain to the last
//     clearing store.
//
// A top value stored by the owner's own CAS is stronger, not weaker: the
// CAS fires only after the owner observed claimFrom == 0, whose clearing
// store (chained through mu) orders every completed section's slot work,
// and a section starting after that load reads the owner's claimed
// bottom, finds no slot to take, and claims nothing. So against the
// floor, worst-case occupancy reaches cap-1 with every slot distinct
// from any unordered foreign access, and the next push re-checks and
// grows under mu.
//
// The owner caches the floor in a plain field (floor) and re-reads it
// only when a push tests full against the cached value. That is sound
// because the floor only rises: every top stored after a reuseFloor
// read is at or above the floor it returned. The owner's CAS and a
// thief's batch CAS only raise top; a hand-back lowers top only to its
// own section's start or above, and that start was counted in the floor
// when the section was open at the read; later sections start at the
// current top. So a stale floor is a lower bound, and it only sends a
// push to refresh, or to grow, earlier.
//
// Only the owner grows the ring, under mu, so thieves (who read buf under
// mu) and the owner (the only other toucher) both see a stable buffer.
//
// # Layout
//
// Each cache line has one class of writer, so a steal does not
// invalidate the lines the owner re-reads between its own writes:
//
//	line   field      written by                         polled lock-free by
//	owner  bottom     owner                              thieves in a steal, Len
//	owner  buf        owner, under mu (grow)             —
//	owner  fcount     under mu (foreign add, overflow    Len, popForeign
//	                  steal, migration), all rare
//	owner  floor      owner (plain)                      —
//	top    top        thieves under mu; owner's          owner push refresh and pop, Len
//	                  last-element CAS
//	steal  mu         thieves, foreign adders, owner     —
//	                  slow paths
//	steal  claimFrom  thieves under mu                   owner push refresh, last-element pop
//	steal  foreign    under mu                           —
//
// A trailing pad keeps the next segment's bottom (segments are stored in
// one slice) off the steal line; TestOwnerDequeLayout pins all of it.
//
// The zero value is an empty, usable deque.
type OwnerDeque[T any] struct {
	bottom atomic.Int64
	buf    []T
	fcount atomic.Int64
	floor  int64 // owner-private cached reuseFloor; a lower bound of the live floor
	_      [16]byte

	top atomic.Int64
	_   [56]byte

	mu        sync.Mutex
	claimFrom atomic.Int64 // 0, or 1 + top at the start of a StealInto claim section (set under mu)
	foreign   Deque[T]
	_         [72]byte
}

// ownerMinCap is the smallest ring allocated; must be a power of two.
const ownerMinCap = 8

// Len returns the segment's current size: ring span plus foreign
// overflow. It takes no lock, so under concurrency it is a momentary
// snapshot. Mid-claim it can undercount by up to the whole in-flight
// batch, down to zero: the batch CAS raises top before the thief
// validates and hands back what the owner's pops won. The real pool's
// searchers are safe against that window because the thief raises the
// pool's moving count under mu before the claim and drops it only after
// redepositing the batch, so no coverage pass certifies emptiness across
// it. Mid-migration (popForeign moving the overflow into the ring) it
// can transiently OVERcount but never falsely read empty, so a
// concurrent searcher's coverage pass cannot certify emptiness while
// elements exist. Exact whenever the segment is quiescent, which is all
// the deterministic drivers need.
//
// The load order is load-bearing and pairs with popForeign's store
// order. The migration publishes the enlarged ring span BEFORE clearing
// fcount; Len loads fcount BEFORE the span. So if this load sees the
// cleared fcount, the clearing store already happened, hence so did the
// span store (SC total order), and the later bottom load must observe
// the migrated span — the elements are counted on at least one side.
// Loading the span first would leave a torn read (stale dry span + new
// zero fcount) summing to a false empty across an otherwise-quiescent
// migration.
func (d *OwnerDeque[T]) Len() int {
	f := d.fcount.Load()
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		n = 0
	}
	return int(n) + int(f)
}

// lenLocked is Len with mu held: the ring span is still racing the
// owner, but the foreign count is exact.
func (d *OwnerDeque[T]) lenLocked() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		n = 0
	}
	return int(n) + d.foreign.Len()
}

// reuseFloor returns the ring index the owner's push path sizes its
// occupancy against: top, lowered to the starting top of any steal
// section seen in flight. The claimFrom, top, claimFrom load order is
// load-bearing; see the type's memory-ordering argument.
func (d *OwnerDeque[T]) reuseFloor() int64 {
	c1 := d.claimFrom.Load()
	t := d.top.Load()
	c2 := d.claimFrom.Load()
	if c1 != 0 {
		t = min(t, c1-1)
	}
	if c2 != 0 {
		t = min(t, c2-1)
	}
	return t
}

// grow ensures ring capacity for the current span plus extra plus the
// one-slot margin the push-path memory-ordering argument needs. Owner
// only, mu held (thieves excluded, so the copy and the buffer swap are
// safe against their slot reads, and no claim section is open, so top
// is the floor).
func (d *OwnerDeque[T]) grow(extra int) {
	b, t := d.bottom.Load(), d.top.Load()
	n := int(b - t)
	if n < 0 {
		n = 0
	}
	need := n + extra + 1
	newCap := len(d.buf)
	if newCap < ownerMinCap {
		newCap = ownerMinCap
	}
	for newCap < need {
		newCap *= 2
	}
	if newCap == len(d.buf) {
		return
	}
	nb := make([]T, newCap)
	oldMask := int64(len(d.buf) - 1)
	newMask := int64(newCap - 1)
	for i := int64(0); i < int64(n); i++ {
		nb[(t+i)&newMask] = d.buf[(t+i)&oldMask]
	}
	d.buf = nb
}

// PushBottom adds an element at the owner end. Owner only. The common
// case is one atomic load (bottom, on the owner's line), a test against
// the cached floor, a slot store, and one SC index store; the floor is
// re-read only when the cached one says full, and the lock is taken
// only to grow the ring. The floor never exceeds bottom, so the empty
// ring of the zero value always tests full and grows.
func (d *OwnerDeque[T]) PushBottom(v T) {
	b := d.bottom.Load()
	if b-d.floor >= int64(len(d.buf)-1) {
		d.floor = d.reuseFloor()
		if b-d.floor >= int64(len(d.buf)-1) {
			d.mu.Lock()
			d.grow(1)
			d.mu.Unlock()
		}
	}
	d.buf[b&int64(len(d.buf)-1)] = v
	d.bottom.Store(b + 1)
}

// PushBottomAll adds every element of vs at the owner end under a single
// capacity check and a single index publication. Owner only. The slice
// is not retained.
func (d *OwnerDeque[T]) PushBottomAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	b := d.bottom.Load()
	end := b + int64(len(vs))
	if end-d.floor > int64(len(d.buf)-1) {
		d.floor = d.reuseFloor()
		if end-d.floor > int64(len(d.buf)-1) {
			d.mu.Lock()
			d.grow(len(vs))
			d.mu.Unlock()
		}
	}
	mask := int64(len(d.buf) - 1)
	for i, v := range vs {
		d.buf[(b+int64(i))&mask] = v
	}
	d.bottom.Store(end)
}

// PopBottom removes the most recently pushed element (LIFO, preserving
// task locality exactly like Deque.Remove). Owner only. The common case
// is lock-free: claim the last slot with an SC bottom store, validate
// against top. The boundary — one element left, or a thief's batch
// claim in flight — resolves under mu, where the thief has already
// committed or handed back what it lost. A dry ring falls back to the
// foreign overflow, migrating it into the ring so subsequent pops are
// lock-free again.
func (d *OwnerDeque[T]) PopBottom() (T, bool) {
	var zero T
	b0 := d.bottom.Load()
	if t0 := d.top.Load(); b0-t0 <= 0 {
		return d.popForeign()
	}
	b := b0 - 1
	d.bottom.Store(b) // claim; SC, so the top load below cannot float above it
	mask := int64(len(d.buf) - 1)
	t := d.top.Load()
	if t < b {
		v := d.buf[b&mask]
		d.buf[b&mask] = zero
		return v, true
	}
	if t == b && d.claimFrom.Load() == 0 && d.top.CompareAndSwap(t, t+1) {
		// Last element, and the CAS beat any thief to it: claims are
		// CASes on both sides, so exactly one party can move top past
		// the final slot. The claimFrom check first is load-bearing for
		// the push path's slot-reuse argument: a thief's batch CAS
		// publishes its new top BEFORE the thief touches the slots, so
		// acquiring top alone does not order that thief's in-flight
		// slot reads/zeroes — but acquiring claimFrom at zero orders
		// every completed steal section (the last section's clearing
		// store, chained through mu to all earlier ones), and a section
		// starting after the load reads bottom == b == top and claims
		// nothing. So on success every foreign slot access below t+1
		// happens-before the owner, and the one-slot push margin stays
		// sufficient. Restore bottom to the canonical empty state (top
		// == bottom == b+1) and take the element without the lock —
		// this is the steady-state pop of a pool hovering near size
		// one, the serial hot path.
		v := d.buf[b&mask]
		d.buf[b&mask] = zero
		d.bottom.Store(b + 1)
		return v, true
	}
	// Boundary lost or ambiguous: a thief's batch claim is in flight (its
	// commit or hand-back resolves inside mu), or the ring emptied
	// between the size check and the claim.
	d.mu.Lock()
	if t := d.top.Load(); t <= b {
		v := d.buf[b&mask]
		d.buf[b&mask] = zero
		d.mu.Unlock()
		return v, true
	}
	d.bottom.Store(b + 1) // the element went to a thief: undo the claim
	d.mu.Unlock()
	return d.popForeign()
}

// popForeign migrates the foreign overflow into the ring (owner only,
// under mu, head-first so pop order matches popping the overflow
// directly) and returns its most recent element. Allocation-free once
// the ring has capacity.
func (d *OwnerDeque[T]) popForeign() (T, bool) {
	var zero T
	if d.fcount.Load() == 0 {
		return zero, false
	}
	d.mu.Lock()
	n := d.foreign.Len()
	if n == 0 {
		d.mu.Unlock()
		return zero, false
	}
	d.grow(n)
	b := d.bottom.Load()
	mask := int64(len(d.buf) - 1)
	for i := int64(n) - 1; i >= 0; i-- {
		v, _ := d.foreign.Remove() // tail-first out of the overflow...
		d.buf[(b+i)&mask] = v      // ...so slot order is head-first
	}
	// Take the migrated tail directly; thieves are excluded by mu, so the
	// index stores need no handshake. Publication order matters for the
	// LOCK-FREE Len readers, though (sizeProbe, a searcher's coverage
	// pass): the enlarged ring span must land before fcount is cleared,
	// and Len loads in the REVERSE order (fcount first), so any torn
	// read lands on the overcounting side — span plus still-nonzero
	// fcount — never on a false empty. Either half alone is insufficient:
	// clearing fcount first makes all n migrated elements invisible
	// between the stores, and a span-first Len can straddle the whole
	// migration (stale dry span, then cleared fcount). See Len's comment
	// for the pairing argument.
	v := d.buf[(b+int64(n)-1)&mask]
	d.buf[(b+int64(n)-1)&mask] = zero
	d.bottom.Store(b + int64(n) - 1)
	d.fcount.Store(0)
	d.mu.Unlock()
	return v, true
}

// PopBottomN removes up to k of the most recently pushed elements
// (foreign overflow included, after the ring). Owner only. Returns nil
// when k <= 0 or the segment is empty.
func (d *OwnerDeque[T]) PopBottomN(k int) []T {
	if k <= 0 {
		return nil
	}
	if n := d.Len(); k > n {
		k = n
	}
	if k == 0 {
		return nil
	}
	out := make([]T, 0, k)
	for len(out) < k {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// AddForeign adds an element from a goroutine that does not own the
// segment: directed placements, kill-time redistribution, seeding. It
// lands in the lock-guarded overflow; the owner's bottom is untouched.
func (d *OwnerDeque[T]) AddForeign(v T) {
	d.mu.Lock()
	d.foreign.Add(v)
	d.fcount.Add(1)
	d.mu.Unlock()
}

// AddForeignAll adds every element of vs through the foreign overflow.
// The slice is not retained.
func (d *OwnerDeque[T]) AddForeignAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	d.mu.Lock()
	d.foreign.AddAll(vs)
	d.fcount.Add(int64(len(vs)))
	d.mu.Unlock()
}

// AddForeignIfUnder adds v through the overflow only while the segment's
// size is below limit, reporting whether it was placed — the capacity-
// respecting remote add behind TryPut's ring walk.
func (d *OwnerDeque[T]) AddForeignIfUnder(v T, limit int) bool {
	d.mu.Lock()
	if d.lenLocked() >= limit {
		d.mu.Unlock()
		return false
	}
	d.foreign.Add(v)
	d.fcount.Add(1)
	d.mu.Unlock()
	return true
}

// StealInto is the thief's batch reserve-transfer: under the segment
// lock it sizes the victim once (n > 0 guaranteed when take is called),
// asks take for the transfer amount, then pulls that many elements —
// foreign overflow first (head-first, the coldest), then the top of the
// ring as one batch claimed with a single CAS — appending them to buf
// and returning the extended slice. Slots the owner's pops win end the
// batch short; the caller gets what was actually reserved. take must not
// call back into the deque (the lock is held). Passing a buffer with
// spare capacity makes StealInto allocation-free.
func (d *OwnerDeque[T]) StealInto(buf []T, take func(n int) int) []T {
	d.mu.Lock()
	n := d.lenLocked()
	if n == 0 {
		d.mu.Unlock()
		return buf
	}
	// Open the claim section for the owner's push floor and last-element
	// CAS; cleared (with release ordering on this section's slot work)
	// before the unlock.
	d.claimFrom.Store(1 + d.top.Load())
	defer func() {
		d.claimFrom.Store(0)
		d.mu.Unlock()
	}()
	k := take(n)
	if k > n {
		k = n
	}
	if fl := d.foreign.Len(); k > 0 && fl > 0 {
		fk := k
		if fk > fl {
			fk = fl
		}
		buf = d.foreign.TakeOut(buf, fk)
		d.fcount.Add(int64(-fk))
		k -= fk
	}
	for {
		t := d.top.Load()
		m := min(int64(k), d.bottom.Load()-t)
		if m <= 0 {
			return buf
		}
		// Claim [t, t+m). The CAS can lose only to the owner's lock-free
		// last-element CAS; on failure re-read top and bottom.
		if !d.top.CompareAndSwap(t, t+m) {
			continue
		}
		if b := d.bottom.Load(); b < t+m {
			// The owner's pops won [b, t+m): hand them back. Its pop of
			// slot b, if still pending, resolves under mu once we unlock.
			m = max(b-t, 0)
			d.top.Store(t + m)
		}
		var zero T
		mask := int64(len(d.buf) - 1)
		for i := t; i < t+m; i++ {
			buf = append(buf, d.buf[i&mask])
			d.buf[i&mask] = zero
		}
		return buf
	}
}

// StealAll drains the whole segment through the steal path, appending to
// buf. Any goroutine may call it; elements the owner pops concurrently
// are the owner's, exactly as with a racing Get.
func (d *OwnerDeque[T]) StealAll(buf []T) []T {
	return d.StealInto(buf, func(n int) int { return n })
}
