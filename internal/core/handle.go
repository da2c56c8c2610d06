package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"pools/internal/engine"
	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/trace"
)

// Handle lifecycle states. The lifecycle is a tiny atomic state machine
// rather than two owner-written bools because Pool.Kill closes a handle
// from outside its owning goroutine: idle (created or revived, not yet
// counted by the abort rule), open (registered, counted), closed
// (withdrawn — by the owner's Close or an external Kill).
const (
	hsIdle int32 = iota
	hsOpen
	hsClosed
)

// Handle is a process's attachment to one segment of a Pool. All pool
// operations go through a handle so that locality ("most operations are
// done within the local components") is explicit in the API.
//
// A Handle may be used by only one goroutine at a time. Distinct handles
// may be used concurrently; that is the entire point of the structure.
//
// The search-steal protocol itself lives in internal/engine; the handle
// supplies the substrate (OwnerDeque segments, directed-add mailboxes,
// wall-clock delays) and keeps the per-operation accounting.
type Handle[T any] struct {
	pool     *Pool[T]
	id       int
	eng      *engine.Engine
	steal    policy.StealAmount      // resolved steal amount, cached off the engine for the probe loop
	gift     func(n, hungry int) int // the placement's mailbox split law (nil = never gifts)
	sub      substrate[T]
	stealBuf []T // reused steal-transfer buffer (reserve under the victim's lock, deposit outside)
	stats    metrics.PoolStats
	tr       *trace.Recorder // flight recorder (nil unless Options.TraceBuf > 0)
	state    atomic.Int32    // hsIdle | hsOpen | hsClosed; atomic so Pool.Kill can close externally
	sample   sampler         // which stats-on operations are timed
}

// ID returns the handle's segment index.
func (h *Handle[T]) ID() int { return h.id }

// BatchSize returns the batch size this handle's controller recommends
// for a workload configured at current, or current itself without a
// controller. Batch drivers consult it before every PutAll/GetN cycle,
// mirroring the simulator's burst loop, so online batch tuning behaves
// identically on both substrates — and, under per-handle sets, every
// handle recommends from its own observed workload.
func (h *Handle[T]) BatchSize(current int) int { return h.eng.BatchSize(current) }

// Controller returns this handle's controller (nil when the policy set
// has none), for observability and controller-trajectory traces.
func (h *Handle[T]) Controller() policy.Controller { return h.eng.Controller() }

// Register marks this handle as a participant in the pool's operations.
// Participation is what the abort rule counts: a Get aborts when every
// registered, unclosed handle is simultaneously searching. Operations
// register implicitly, but a process that will begin by removing should
// Register all participants first so that a consumer starting before the
// first producer's Put does not observe a one-process pool and abort
// immediately. Register is idempotent.
func (h *Handle[T]) Register() { h.registerFrom(h.state.Load()) }

// registerFrom is Register given the handle's state as already loaded,
// so an operation that has just read it for its closed check does not
// read it again.
func (h *Handle[T]) registerFrom(s int32) {
	if s == hsIdle && h.state.CompareAndSwap(hsIdle, hsOpen) {
		h.pool.open.Add(1)
	}
}

// Close withdraws this handle from the pool's participant set. A closed
// handle's operations fail; searches by other handles no longer wait for
// this process to add elements. Any gift stranded in the handle's mailbox
// (a directed add that raced with the end of its last search) is parked
// in the local segment first, where other processes' steals can reach it
// — otherwise a worker exiting on a perceived-empty pool would strand a
// whole batch until Drain. Before returning, Close waits out any steal
// mid-transfer: withdrawing from the open count can make the
// all-searching observation true for the remaining searchers, and the
// certificate must not race a thief's not-yet-deposited surplus (the
// Coverage rule's TransfersInFlight guard covers searchers, but a
// closing worker often tears the pool down next, and Drain does not
// consult the rule). Close is idempotent.
func (h *Handle[T]) Close() {
	p := h.pool
	if p.boxes != nil {
		if g, ok := p.boxes[h.id].tryTake(); ok {
			h.parkLocal(g.elements())
			if p.opts.CollectStats {
				h.stats.DirectedReceives += int64(g.count())
			}
			if h.tr != nil {
				h.tr.Record(trace.GiftRecv, -1, int32(g.count()))
			}
		}
	}
	if !h.withdraw() {
		return
	}
	// The closer never holds a segment lock here and a thief needs only
	// its own segment's lock to land the deposit, so this wait cannot
	// deadlock.
	for p.moving.Load() > 0 {
		runtime.Gosched()
	}
}

// withdraw moves the handle to closed, releasing its open-count slot if
// it held one. It reports whether this call performed the transition.
func (h *Handle[T]) withdraw() bool {
	for {
		s := h.state.Load()
		if s == hsClosed {
			return false
		}
		if h.state.CompareAndSwap(s, hsClosed) {
			if s == hsOpen {
				h.pool.open.Add(-1)
			}
			return true
		}
	}
}

// Closed reports whether Close has been called on this handle.
func (h *Handle[T]) Closed() bool { return h.state.Load() == hsClosed }

// Stats returns a snapshot of this handle's operation statistics.
func (h *Handle[T]) Stats() metrics.PoolStats { return h.stats }

// sampleSpan is the stats sampling rate: a stats-on handle times one
// operation in sampleSpan on average and only counts the rest. Each gap
// between timed operations is drawn uniformly from [1, 2*sampleSpan-1],
// so a periodic operation pattern (strict Put/Get alternation, say)
// cannot alias with the sampler and leave one kind never timed.
const sampleSpan = 64

// sampler picks which stats-on operations a handle times.
type sampler struct {
	on      bool      // Options.CollectStats
	untimed int32     // operations left to skip before the next timed one
	x       uint64    // xorshift state drawing the gaps (never 0)
	base    time.Time // the pool's creation time (carries a monotonic reading)
}

// begin starts one operation's stats. It returns a clock reading (ns
// since base) when the operation is to be timed, and -1 when stats are
// off or the sampler skips this operation — then the operation reads no
// clock at all and the stats only count it. Only the monotonic clock is
// read, so time.Since never touches the wall clock.
func (s *sampler) begin() int64 {
	if !s.on {
		return -1
	}
	if s.untimed--; s.untimed >= 0 {
		return -1
	}
	return s.start()
}

// start draws the gap to the next timed operation and reads the clock for
// this one. It is split from begin, which runs on every operation, so
// that begin stays small enough to inline.
func (s *sampler) start() int64 {
	x := s.x
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.x = x
	s.untimed = int32(x % (2*sampleSpan - 1))
	return int64(time.Since(s.base))
}

// since returns the µs elapsed since a begin stamp, keeping the sub-µs
// fraction, or metrics.Untimed when the operation is not timed. A timed
// operation reads the clock exactly twice: in begin and here.
func (s *sampler) since(start int64) float64 {
	if start < 0 {
		return metrics.Untimed
	}
	return float64(int64(time.Since(s.base))-start) / 1000
}

// Put adds an element to the pool: into a hungry searcher's mailbox when
// the placement's Gift law directs it there, into the segment its plan's
// candidates score best (e.g. policy.GiftToEmptiest), otherwise into the
// local segment. It never fails and never blocks on other segments'
// operations beyond the placement's own probes. A segment add touches the
// pool-wide version only while some handle is searching (noteAdd), so
// owners adding with nobody searching share no written cache line.
func (h *Handle[T]) Put(v T) {
	h.Register()
	p := h.pool
	start := h.sample.begin()
	if h.gift != nil && p.giftOut(h.id, []T{v}) == 1 {
		p.version.Add(1)
		if p.opts.CollectStats {
			h.stats.DirectedGives++
			h.stats.RecordAdd(h.sample.since(start))
		}
		if h.tr != nil {
			h.tr.Record(trace.GiftSend, -1, 1)
		}
		return
	}
	target := p.members.Place(h.eng.DirectTarget(1))
	p.opts.Delay.Delay(numa.AccessAdd, h.id, target)
	if target == h.id {
		// The owner's lock-free bottom: no lock on the local add path.
		p.segs[target].dq.PushBottom(v)
	} else {
		// A directed placement aimed elsewhere: only the owner may touch
		// a segment's bottom, so the add goes through the target's
		// lock-guarded foreign overflow.
		p.segs[target].dq.AddForeign(v)
	}
	p.noteAdd()
	if p.opts.CollectStats {
		h.stats.RecordAdd(h.sample.since(start))
	}
}

// PutAll adds every element of items to one segment under a single lock
// acquisition, amortizing the lock (and any NUMA add delay) over the
// whole batch. With directed adds enabled, a leading portion of the batch
// — the Placement policy's choice, by default the whole slice — is gifted
// to hungry searchers first, split evenly among them, so a batch arrival
// can hand each starving consumer an entire reserve; the remainder lands
// on the segment the placement plan selects (the local segment
// otherwise), published to searches as Put's is (noteAdd). PutAll of an
// empty slice is a no-op. The items slice is not retained.
func (h *Handle[T]) PutAll(items []T) {
	if len(items) == 0 {
		return
	}
	h.Register()
	p := h.pool
	start := h.sample.begin()
	gifted := 0
	if h.gift != nil {
		gifted = p.giftOut(h.id, items)
		if p.opts.CollectStats {
			h.stats.DirectedGives += int64(gifted)
		}
		if h.tr != nil && gifted > 0 {
			h.tr.Record(trace.GiftSend, -1, int32(gifted))
		}
		if gifted == len(items) {
			p.version.Add(1)
			if p.opts.CollectStats {
				h.stats.RecordBatchAdd(h.sample.since(start), gifted)
			}
			return
		}
	}
	target := p.members.Place(h.eng.DirectTarget(len(items) - gifted))
	p.opts.Delay.Delay(numa.AccessAdd, h.id, target)
	if target == h.id {
		p.segs[target].dq.PushBottomAll(items[gifted:])
	} else {
		p.segs[target].dq.AddForeignAll(items[gifted:])
	}
	p.noteAdd()
	if p.opts.CollectStats {
		h.stats.RecordBatchAdd(h.sample.since(start), len(items))
	}
}

// TryPut adds an element respecting Options.SegmentCap: if the local
// segment is full it walks the ring for a segment with spare capacity (the
// paper's symmetric remote-add footnote) and reports whether the element
// was placed. With SegmentCap == 0 it always places locally. A placed
// element is published to searches as Put's is (noteAdd).
func (h *Handle[T]) TryPut(v T) bool {
	p := h.pool
	h.Register()
	cap := p.opts.SegmentCap
	if cap <= 0 {
		h.Put(v)
		return true
	}
	start := h.sample.begin()
	n := len(p.segs)
	for off := 0; off < n; off++ {
		idx := (h.id + off) % n
		if !p.members.Victim(idx) {
			continue // departed drain-mode segment: searches skip it
		}
		p.opts.Delay.Delay(numa.AccessAdd, h.id, idx)
		s := &p.segs[idx]
		placed := false
		if idx == h.id {
			// Own segment: the owner is the only bottom-pusher, but a
			// foreign add can land between the lock-free size check and
			// the push, so cap is best-effort here — overshoot is bounded
			// by the number of concurrently racing foreign adders, and
			// cap is exact whenever the segment is quiescent. (The remote
			// branch has the mirror-image race: AddForeignIfUnder's
			// locked check reads the ring span lock-free against the
			// owner's in-flight push, with the same bound.)
			if s.dq.Len() < cap {
				s.dq.PushBottom(v)
				placed = true
			}
		} else {
			placed = s.dq.AddForeignIfUnder(v, cap)
		}
		if placed {
			p.noteAdd()
			if p.opts.CollectStats {
				h.stats.RecordAdd(h.sample.since(start))
			}
			return true
		}
	}
	return false
}

// TryGetLocal removes an element from the local segment only, without
// searching, and feeds the hit to the controller as Get's fast path does.
// It returns false if the local segment is empty.
func (h *Handle[T]) TryGetLocal() (T, bool) {
	h.Register()
	p := h.pool
	start := h.sample.begin()
	p.opts.Delay.Delay(numa.AccessRemove, h.id, h.id)
	v, ok := p.segs[h.id].dq.PopBottom()
	if ok {
		if p.opts.CollectStats {
			h.stats.RecordLocalRemove(h.sample.since(start))
		}
		h.eng.ObserveLocal(1)
	}
	return v, ok
}

// Get removes an element from the pool: locally when possible, otherwise
// by searching remote segments (in the VictimOrder policy's order) and
// stealing a StealAmount-policy-chosen share of the first non-empty one.
// It returns ok=false when the pool or handle is closed, or when every
// open handle is simultaneously searching (the pool is empty and no
// participant can be adding — the paper's abort rule).
func (h *Handle[T]) Get() (T, bool) {
	var zero T
	p := h.pool
	st := h.state.Load()
	if st == hsClosed || p.closed.Load() {
		return zero, false
	}
	h.registerFrom(st)
	start := h.sample.begin()

	// Fast path: the owner's lock-free bottom. Only a thief contending
	// for the very last element can send this to the segment lock.
	p.opts.Delay.Delay(numa.AccessRemove, h.id, h.id)
	v, ok := p.segs[h.id].dq.PopBottom()
	if ok {
		if p.opts.CollectStats {
			h.stats.RecordLocalRemove(h.sample.since(start))
		}
		h.eng.ObserveLocal(1)
		return v, true
	}

	// Slow path: the engine's search-steal protocol, then the gift races.
	// A timed remove is timed whole, so on the real pool StealTime also
	// covers the failed local pop (a few ns) ahead of the search.
	var one [1]T
	out := h.remove(start, 1, one[:0], false)
	return one[0], out != nil
}

// parkLocal adds elements to the local segment, where subsequent removes
// find them on the fast path (and other searchers' steals can reach
// them) — or, when a drain-kill has removed the local segment from the
// victim set, to the nearest victim segment so the parked elements stay
// visible to searches. A nil or empty slice is a no-op.
func (h *Handle[T]) parkLocal(items []T) {
	if len(items) == 0 {
		return
	}
	p := h.pool
	if t := p.members.Place(h.id); t == h.id {
		p.segs[t].dq.PushBottomAll(items)
	} else {
		p.segs[t].dq.AddForeignAll(items)
	}
	p.noteAdd()
}

// remove is the one slow path of Get and GetN: one engine search for up
// to max elements, then the mailbox. It appends what it took to dst, which
// must be empty (nil makes a new slice), and returns nil on an abort;
// batch marks a GetN in the stats. A steal already moved its batch into
// the local segment with one element reserved: a gift that raced with it
// is parked there first, where every searcher can reach it, then the
// reserved element and up to max-1 more from the local bottom make the
// result. Without a steal, a gift (which may race with a genuine abort)
// gives up to max elements and the rest is parked.
func (h *Handle[T]) remove(start int64, max int, dst []T, batch bool) []T {
	p := h.pool
	res := h.eng.Search(max)
	var g gift[T]
	gotGift := false
	if p.boxes != nil {
		g, gotGift = p.boxes[h.id].tryTake()
	}
	if gotGift {
		if p.opts.CollectStats {
			h.stats.DirectedReceives += int64(g.count())
		}
		if h.tr != nil {
			h.tr.Record(trace.GiftRecv, -1, int32(g.count()))
		}
	}
	var out []T
	got := res.Got
	switch {
	case res.Got > 0:
		if gotGift {
			h.parkLocal(g.elements())
		}
		if dst == nil {
			dst = make([]T, 0, max)
		}
		out = append(dst, h.sub.reserved)
		h.sub.reserved = *new(T) // the substrate keeps no element reference
		if max > 1 {
			out = append(out, p.segs[h.id].dq.PopBottomN(max-1)...)
		}
	case gotGift:
		got = g.count()
		if g.batch == nil {
			out = append(dst, g.one)
			break
		}
		if dst == nil {
			dst = g.batch[:0] // a GetN's result may keep the gift's slice
		}
		n := min(max, len(g.batch))
		out = append(dst, g.batch[:n]...)
		h.parkLocal(g.batch[n:])
	}
	if p.opts.CollectStats {
		d := h.sample.since(start)
		if out == nil {
			h.stats.RecordAbort(d)
		} else {
			h.stats.RecordStealRemove(d, d, res.Examined, got, len(out), batch)
		}
	}
	h.eng.Observe(policy.Feedback{Stole: res.Got > 0, Aborted: out == nil, Examined: res.Examined, Got: got})
	return out
}

// GetN removes up to max elements from the pool in one operation. The
// local fast path drains the segment under a single lock acquisition; on a
// dry local segment it searches and steals exactly like Get — a successful
// steal already lands a policy-sized batch in the local segment (the
// StealAmount policy sees max as the requester's appetite), and GetN
// surfaces that batch instead of returning one element and re-locking for
// the rest. It returns nil under the same conditions Get returns
// ok=false: pool or handle closed, or the abort rule certified emptiness.
func (h *Handle[T]) GetN(max int) []T {
	if max <= 0 {
		return nil
	}
	p := h.pool
	st := h.state.Load()
	if st == hsClosed || p.closed.Load() {
		return nil
	}
	h.registerFrom(st)
	start := h.sample.begin()

	// Fast path: drain the local segment through the owner's bottom.
	p.opts.Delay.Delay(numa.AccessRemove, h.id, h.id)
	s := &p.segs[h.id]
	out := s.dq.PopBottomN(max)
	if len(out) > 0 {
		if p.opts.CollectStats {
			h.stats.RecordBatchLocalRemove(h.sample.since(start), len(out))
		}
		h.eng.ObserveLocal(len(out))
		return out
	}

	// Slow path: search and steal, exactly as Get.
	return h.remove(start, max, nil, true)
}

// substrate adapts a Handle to engine.Substrate / engine.TreeSubstrate:
// the typed reserve/transfer half of the steal protocol, over the
// segments' thief side (the segment lock) with wall-clock delay
// injection. Coverage tracking, probe classification, and the abort rule
// live in the engine.
type substrate[T any] struct {
	h        *Handle[T]
	reserved T
}

var _ engine.TreeSubstrate = (*substrate[int])(nil)

// Enter implements engine.Substrate: join the lookers count (the livelock
// rule's evidence) and raise the hungry flag for directed adds.
func (w *substrate[T]) Enter(int) {
	p := w.h.pool
	p.lookers.Add(1)
	if p.boxes != nil {
		p.boxes[w.h.id].hungry.Store(true)
	}
}

// Exit implements engine.Substrate.
func (w *substrate[T]) Exit() {
	p := w.h.pool
	if p.boxes != nil {
		p.boxes[w.h.id].hungry.Store(false)
	}
	p.lookers.Add(-1)
}

// Stopped implements engine.Substrate: the pool or handle closed, or a
// directed-add gift landed in the mailbox — Get's slow path collects it.
func (w *substrate[T]) Stopped() bool {
	p := w.h.pool
	if p.closed.Load() || w.h.state.Load() == hsClosed {
		return true
	}
	return p.boxes != nil && len(p.boxes[w.h.id].slot) > 0
}

// Probe implements engine.Substrate. Probing the local segment reports
// its size and reserves one element if available, through the owner's
// lock-free bottom. Probing a remote segment reserves the StealAmount
// policy's share into the handle's private steal buffer under the
// victim's steal lock alone (OwnerDeque.StealInto: foreign overflow
// first, then claim-validated top-of-ring takes), then deposits the
// surplus into the local segment after unlocking — the lock-hold
// shortening that keeps a steal from serializing the victim against the
// thief's own segment. The buffer is reused across calls, so the steal
// path performs no per-call allocation once warm.
func (w *substrate[T]) Probe(sIdx, want int) int {
	h := w.h
	p := h.pool
	self := h.id
	p.opts.Delay.Delay(numa.AccessProbe, self, sIdx)

	if sIdx == self {
		s := &p.segs[self]
		n := s.dq.Len()
		if n > 0 {
			v, ok := s.dq.PopBottom()
			if !ok {
				// A thief emptied the segment between the size read and
				// the pop; nothing was reserved, so report empty. The
				// element the thief took is covered by its own transfer
				// accounting.
				return 0
			}
			w.reserved = v
		}
		return n
	}

	// Between the victim unlock and the local deposit the stolen batch
	// lives only in the handle's buffer — in no segment, invisible to
	// probes. The moving count keeps the Coverage rule from certifying
	// emptiness over it; raised under the victim's lock before the claims
	// begin so there is no gap, dropped only after the deposit's version
	// bump so a searcher that reads zero is guaranteed to see the bump and
	// re-arm. A probe that finds the victim empty never raises it: with
	// more searchers than CPUs, descheduled empty probes holding the count
	// would keep every searcher of an empty pool from aborting.
	raised := false
	src := &p.segs[sIdx]
	buf := src.dq.StealInto(h.stealBuf[:0], func(n int) int {
		// Consulted under the victim's steal lock, only when n > 0 —
		// the same point the lock-era path sized its TakeOut.
		p.moving.Add(1)
		raised = true
		p.opts.Delay.Delay(numa.AccessSplit, self, sIdx)
		return h.steal.Amount(n, want)
	})
	moved := len(buf)
	if moved == 0 {
		if raised {
			p.moving.Add(-1)
		}
		return 0
	}
	w.reserved = buf[moved-1]
	if moved > 1 {
		// A kill can drain this thief's own segment between the search's
		// start and this deposit; Place reads the victim bit after
		// Kill's membership store, so the surplus lands where searches
		// (and the kill-time drain's moving-wait) still find it.
		if t := p.members.Place(self); t == self {
			p.segs[t].dq.PushBottomAll(buf[:moved-1])
		} else {
			p.segs[t].dq.AddForeignAll(buf[:moved-1])
		}
	}
	clear(buf) // release element references for GC; the buffer itself is kept
	h.stealBuf = buf[:0]
	p.version.Add(1) // elements relocated: other searchers must re-scan
	p.moving.Add(-1)
	if h.tr != nil {
		h.tr.Record(trace.ReserveTransfer, int32(sIdx), int32(moved))
	}
	return moved
}

// NumLeaves implements engine.TreeSubstrate.
func (w *substrate[T]) NumLeaves() int { return w.h.pool.leaves }

// RoundOf implements engine.TreeSubstrate.
func (w *substrate[T]) RoundOf(n int) uint64 {
	p := w.h.pool
	p.opts.Delay.Delay(numa.AccessNode, w.h.id, -1)
	return p.roundOf(n)
}

// MaxRound implements engine.TreeSubstrate.
func (w *substrate[T]) MaxRound(n int, r uint64) {
	p := w.h.pool
	p.opts.Delay.Delay(numa.AccessNode, w.h.id, -1)
	p.maxRound(n, r)
}

// coverageState exposes the pool-wide evidence engine.Coverage consults.
type coverageState[T any] struct{ p *Pool[T] }

var _ engine.CoverageState = coverageState[int]{}

// Version implements engine.CoverageState.
func (c coverageState[T]) Version() uint64 { return c.p.version.Load() }

// AllSearching implements engine.CoverageState.
func (c coverageState[T]) AllSearching() bool { return c.p.lookers.Load() >= c.p.open.Load() }

// GiftsInFlight implements engine.CoverageState.
func (c coverageState[T]) GiftsInFlight() bool { return c.p.giftsInFlight() }

// TransfersInFlight implements engine.CoverageState.
func (c coverageState[T]) TransfersInFlight() bool { return c.p.moving.Load() > 0 }

// Epoch implements engine.CoverageState: the pool's membership epoch —
// one atomic load, the whole cost of churn-awareness on the abort path.
func (c coverageState[T]) Epoch() uint64 { return c.p.members.Epoch() }
