// Package keyed answers the paper's second Section 5 question: "How might
// pools be extended to handle distinguishable elements?"
//
// A keyed pool partitions elements by segment (for locality, exactly like
// the plain pool) and, within each segment, by a comparable key class.
// Processes may remove an element of a *specific* class or of any class.
// Local operations stay O(1); when the local segment has no element of
// the requested class, the process walks the segment ring and steals half
// of the first matching bucket it finds — the plain pool's linear
// algorithm lifted to buckets. The walk itself is the shared search-steal
// protocol from internal/engine: the keyed pool supplies a bucket-probing
// substrate and a bounded termination rule, and the engine drives the
// same searcher/feedback loop the plain pool and the simulator run.
//
// Unlike the plain pool, a keyed removal knows exactly what it is looking
// for, so emptiness is decidable without the all-searching livelock rule:
// a Get that completes Options.Sweeps full passes without finding its
// class returns false (engine.Bounded). (A concurrent add of that class
// can race past a sweep, exactly as it can in the paper's pool; callers
// retry if their protocol expects late arrivals.)
//
// The keyed pool consults the same policy.Set as the plain pool
// (Options.Policies): the StealAmount sizes bucket steals, a VictimOrder
// whose plan ranks the victims (policy.LocalityOrder,
// policy.HierarchicalOrder) reorders the ring sweep cheapest-victim-
// first, a placement plan's candidates steer adds toward the emptiest
// segment (policy.PlacePlan), and a Controller — per-handle or pool-wide — tunes from each
// remove's outcome.
package keyed

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"pools/internal/engine"
	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/segment"
	"pools/internal/trace"
)

// Options configures a keyed Pool.
type Options struct {
	// Segments is the number of segments (and worker handles). Required.
	Segments int
	// Sweeps is the number of full ring sweeps a searching Get performs
	// before concluding the requested class is absent. Default 1.
	Sweeps int
	// Policies selects the pool's tunable decisions, exactly as
	// core.Options.Policies does for the plain pool; nil slots take paper
	// defaults (steal-half, ring sweep order, local placement, no
	// control). Victim orders apply through their plan's rank (see
	// search.Plan); a placement applies through its plan's candidates (see
	// policy.PlacePlan), and its Gift law is ignored (the keyed pool has no
	// directed-add mailboxes).
	Policies policy.Set
	// Topology assigns hop distances to segment pairs. When set, every
	// remote probe a sweep performs is classified as near or cross-cluster
	// (see Pool.ProbeStats) — the measure the keyed locality experiments
	// report. It does not change the sweep order by itself; pair it with a
	// topology-aware ranking order (policy.HierarchicalOrder or
	// policy.LocalityOrder) to make sweeps cluster-first.
	Topology numa.Topology
	// TraceBuf, when positive, attaches a flight recorder of that many
	// events to every handle (internal/trace): sweep probes, bucket
	// reserve/transfer edges, and termination verdicts, timestamped in
	// microseconds since pool creation. Zero disables tracing.
	TraceBuf int
}

// Pool is a concurrent pool of key-classed elements. Create with New.
type Pool[K comparable, V any] struct {
	opts    Options
	segs    []seg[K, V]
	handles []*Handle[K, V]
	members *engine.Membership // dynamic membership: alive/victim bits + epoch
}

type seg[K comparable, V any] struct {
	mu      sync.Mutex
	buckets map[K]*segment.Deque[V]
	total   int
	// spare caches the most recently emptied bucket's deque (buffer and
	// all) for reuse, so a key that drains and refills — the steady state
	// of a hot class — does not allocate a fresh bucket per cycle.
	spare *segment.Deque[V]
	_     [64]byte
}

// bucket returns segment s's class-k bucket, creating it (from the spare
// cache when possible) if absent. Callers hold s.mu.
func (s *seg[K, V]) bucket(k K) *segment.Deque[V] {
	b := s.buckets[k]
	if b == nil {
		if s.spare != nil {
			b = s.spare
			s.spare = nil
		} else {
			b = &segment.Deque[V]{}
		}
		s.buckets[k] = b
	}
	return b
}

// drop removes class k's emptied bucket from the map, caching its deque
// for reuse. Callers hold s.mu and guarantee b is empty.
func (s *seg[K, V]) drop(k K, b *segment.Deque[V]) {
	delete(s.buckets, k)
	s.spare = b
}

// pick returns the class and bucket a remove takes from: class k's, or
// with anyClass the first non-empty one in map order. The bucket is nil
// when the segment has no element to give. Callers hold s.mu.
func (s *seg[K, V]) pick(k K, anyClass bool) (K, *segment.Deque[V]) {
	if anyClass {
		for c, b := range s.buckets {
			if !b.Empty() {
				return c, b
			}
		}
		return k, nil
	}
	if b := s.buckets[k]; b != nil && !b.Empty() {
		return k, b
	}
	return k, nil
}

// New creates a keyed pool.
func New[K comparable, V any](opts Options) (*Pool[K, V], error) {
	if opts.Segments < 1 {
		return nil, fmt.Errorf("keyed: Segments = %d, need >= 1", opts.Segments)
	}
	if opts.Sweeps == 0 {
		opts.Sweeps = 1
	}
	if opts.Sweeps < 0 {
		return nil, fmt.Errorf("keyed: Sweeps = %d, need >= 0", opts.Sweeps)
	}
	if opts.TraceBuf < 0 {
		return nil, fmt.Errorf("keyed: TraceBuf = %d, need >= 0", opts.TraceBuf)
	}
	pol := opts.Policies.WithDefaults()
	p := &Pool[K, V]{opts: opts, segs: make([]seg[K, V], opts.Segments)}
	p.members = engine.NewMembership(opts.Segments)
	for i := range p.segs {
		p.segs[i].buckets = make(map[K]*segment.Deque[V])
	}
	var clock func() int64
	if opts.TraceBuf > 0 {
		// Microseconds since the pool's creation; one closure serves
		// every handle's recorder.
		epoch := time.Now()
		clock = func() int64 { return time.Since(epoch).Microseconds() }
	}
	p.handles = make([]*Handle[K, V], opts.Segments)
	for i := range p.handles {
		h := &Handle[K, V]{pool: p, id: i}
		h.sub.h = h
		// The sweep is a search.Searcher like every other substrate's:
		// the victim order's plan's rank when it has one, the ring from
		// where elements were last found otherwise. The rank is nil
		// under victim-uniform costs and for the paper's algorithms: the
		// handle keeps the ring sweep, matching the plain pool's fallback
		// to a paper algorithm.
		var srch search.Searcher
		if rank := pol.Order.Plan(i, opts.Segments, 0, nil).Rank; rank != nil {
			srch = search.NewOrderedSearcher(rank)
		} else {
			srch = search.NewLinearSearcher(i)
		}
		if opts.TraceBuf > 0 {
			h.tr = trace.NewRecorder(i, opts.TraceBuf, clock)
			p.members.Attach(i, h.tr)
		}
		h.eng = engine.New(engine.Config{
			Self:      i,
			Segments:  opts.Segments,
			Policies:  pol,
			Topology:  opts.Topology,
			Stats:     &h.stats,
			Searcher:  srch,
			SizeProbe: h.sizeProbe(),
			Tracer:    h.tr,
			Members:   p.members,
		}, &h.sub, engine.NewBounded(opts.Segments*opts.Sweeps))
		h.steal = h.eng.StealAmount()
		p.handles[i] = h
	}
	return p, nil
}

// Tracer returns segment i's flight recorder, nil unless the pool was
// built with Options.TraceBuf > 0.
func (p *Pool[K, V]) Tracer(i int) *trace.Recorder { return p.handles[i].tr }

// Timelines snapshots every handle's flight recorder for export, nil
// when tracing is disabled.
func (p *Pool[K, V]) Timelines() []trace.Timeline { return p.members.Timelines() }

// Segments returns the number of segments.
func (p *Pool[K, V]) Segments() int { return p.opts.Segments }

// Handle returns the handle for segment i.
func (p *Pool[K, V]) Handle(i int) *Handle[K, V] { return p.handles[i] }

// Len returns the total number of elements across all segments.
func (p *Pool[K, V]) Len() int {
	total := 0
	for i := range p.segs {
		total += p.SegmentLen(i)
	}
	return total
}

// SegmentLen returns the number of elements in segment i, of every class.
func (p *Pool[K, V]) SegmentLen(i int) int {
	s := &p.segs[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// LenKey returns the number of elements of class k.
func (p *Pool[K, V]) LenKey(k K) int {
	total := 0
	for i := range p.segs {
		s := &p.segs[i]
		s.mu.Lock()
		if b := s.buckets[k]; b != nil {
			total += b.Len()
		}
		s.mu.Unlock()
	}
	return total
}

// Kill removes handle i from the pool's membership at runtime. With
// drain, segment i's buckets are redistributed key-preserving across the
// surviving victim segments and the segment leaves the victim set (adds
// aimed at it redirect, sweeps skip it); without drain the segment stays
// a steal-only victim whose reserve drains through the survivors'
// steals. Kill refuses (returning false) to remove the last live
// member, or a member already dead. The keyed pool's Bounded termination
// never certifies exact emptiness, so unlike the plain pool no
// transfer-wait is needed — a sweep racing the redistribution at worst
// misses a class this pass and retries, the documented keyed semantics.
func (p *Pool[K, V]) Kill(i int, drain bool) bool {
	if !p.members.Leave(i, !drain) {
		return false
	}
	if drain {
		p.redistribute(i)
	}
	return true
}

// redistribute drains segment i's buckets into the surviving victim
// segments, one non-empty bucket per unit of engine.Membership.Relocate,
// so one survivor does not absorb the whole segment.
func (p *Pool[K, V]) redistribute(i int) {
	s := &p.segs[i]
	s.mu.Lock()
	buckets := s.buckets
	s.buckets = make(map[K]*segment.Deque[V])
	s.total = 0
	s.spare = nil
	s.mu.Unlock()
	var keys []K
	var parts [][]V
	for k, b := range buckets {
		if elems := b.TakeOut(nil, b.Len()); len(elems) > 0 {
			keys, parts = append(keys, k), append(parts, elems)
		}
	}
	p.members.Relocate(i, len(parts), func(t, j int) int {
		dst := &p.segs[t]
		dst.mu.Lock()
		dst.bucket(keys[j]).AddAll(parts[j])
		dst.total += len(parts[j])
		dst.mu.Unlock()
		return len(parts[j])
	})
}

// Revive re-admits a killed handle: its segment rejoins the victim set
// and alive set, and the membership epoch bumps so in-flight sweeps see
// the topology change. Reviving a live member returns false.
func (p *Pool[K, V]) Revive(i int) bool { return p.members.Join(i) }

// Alive reports whether handle i is a live member.
func (p *Pool[K, V]) Alive(i int) bool { return p.members.Alive(i) }

// Victim reports whether segment i is in the victim set.
func (p *Pool[K, V]) Victim(i int) bool { return p.members.Victim(i) }

// Epoch returns the current membership epoch.
func (p *Pool[K, V]) Epoch() uint64 { return p.members.Epoch() }

// Handle is one process's attachment to a keyed pool segment. A Handle
// may be used by only one goroutine at a time. Its searches run through
// the shared engine: the handle supplies bucket probes, the engine owns
// the sweep order, the probe budget, and the feedback plumbing.
type Handle[K comparable, V any] struct {
	pool     *Pool[K, V]
	id       int
	eng      *engine.Engine
	steal    policy.StealAmount // resolved steal amount, cached off the engine for the probe loop
	sub      keyedSubstrate[K, V]
	stealBuf []V             // reused bucket-steal buffer (reserve under the victim's lock, deposit outside)
	one      [1]V            // Get's and GetAny's output slot, cleared after each read
	tr       *trace.Recorder // flight recorder (nil unless Options.TraceBuf > 0)

	// stats carries the remote-probe accounting under Options.Topology
	// (unsynchronized, like the plain pool's per-handle stats; read via
	// Pool.ProbeStats after the workers join).
	stats metrics.PoolStats
}

// An instantiation, so that building this package alone compiles the
// generic handle and reports its inlining decisions (make inline-check).
var _ = (*Handle[int, int]).Put

// ProbeStats sums every handle's remote-probe accounting: how many sweep
// probes touched another segment, and how many of those crossed a cluster
// boundary under Options.Topology (always 0 without one). Like Stats on
// the plain pool, call it only while no operations are in flight.
func (p *Pool[K, V]) ProbeStats() (remote, cross int64) {
	for _, h := range p.handles {
		remote += h.stats.RemoteProbes
		cross += h.stats.CrossProbes
	}
	return remote, cross
}

// ID returns the handle's segment index.
func (h *Handle[K, V]) ID() int { return h.id }

// sizeProbe builds the placement size-probe closure once per handle, so
// the add hot path under a size-aware placement does not allocate a
// closure per Put.
func (h *Handle[K, V]) sizeProbe() func(s int) int {
	return func(sIdx int) int {
		h.eng.NoteProbe(sIdx)
		s := &h.pool.segs[sIdx]
		s.mu.Lock()
		l := s.total
		s.mu.Unlock()
		return l
	}
}

// Put adds an element of class k to the local segment — or to the
// segment the placement plan selects. O(1) for a plan without candidates.
func (h *Handle[K, V]) Put(k K, v V) {
	s := &h.pool.segs[h.pool.members.Place(h.eng.DirectTarget(1))]
	s.mu.Lock()
	s.bucket(k).Add(v)
	s.total++
	s.mu.Unlock()
}

// PutAll adds every element of vs to one segment's class-k bucket (the
// local segment, or the placement plan's choice) under a single lock
// acquisition. PutAll of an empty slice is a no-op.
func (h *Handle[K, V]) PutAll(k K, vs []V) {
	if len(vs) == 0 {
		return
	}
	s := &h.pool.segs[h.pool.members.Place(h.eng.DirectTarget(len(vs)))]
	s.mu.Lock()
	s.bucket(k).AddAll(vs)
	s.total += len(vs)
	s.mu.Unlock()
}

// GetN removes up to max elements of class k in one operation: it drains
// the local bucket under one lock when possible, otherwise sweeps the
// segments and surfaces the batch a policy-sized bucket steal transfers.
// It returns nil when max <= 0 or no element of class k was found within
// Options.Sweeps full sweeps (the key-miss fallback: absence is
// decidable, no livelock rule needed).
func (h *Handle[K, V]) GetN(k K, max int) []V {
	if max <= 0 {
		return nil
	}
	_, out := h.remove(k, false, max, nil)
	return out
}

// Get removes an element of class k: locally when possible, otherwise by
// sweeping the segments and stealing a policy-sized share of the first
// non-empty k-bucket. It returns false after Options.Sweeps full sweeps
// found no element of class k.
func (h *Handle[K, V]) Get(k K) (V, bool) {
	// Local fast path: one bucket pop ahead of the shared remove, as
	// core's Get keeps its owner pop; remove's general take costs a local
	// hit more.
	s := &h.pool.segs[h.id]
	s.mu.Lock()
	if b := s.buckets[k]; b != nil {
		if v, ok := b.Remove(); ok {
			s.total--
			if b.Empty() {
				s.drop(k, b)
			}
			s.mu.Unlock()
			h.eng.ObserveLocal(1)
			return v, true
		}
	}
	s.mu.Unlock()
	_, out := h.remove(k, false, 1, h.one[:0])
	return h.first(), len(out) > 0
}

// GetAny removes an element of any class, preferring local ones. It
// returns false when the pool appears empty after the configured sweeps.
func (h *Handle[K, V]) GetAny() (K, V, bool) {
	var k K
	k, out := h.remove(k, true, 1, h.one[:0])
	return k, h.first(), len(out) > 0
}

// first reads a one-element remove's result out of the handle's one-slot
// output and clears the slot, so the handle keeps no element reference. A
// remove that found nothing left the slot zero.
func (h *Handle[K, V]) first() V {
	v := h.one[0]
	clear(h.one[:])
	return v
}

// remove is the one path of Get, GetN and GetAny. It takes up to max
// elements of class k (of any class, with anyClass) from the local
// segment, else runs an engine sweep whose probes take from each segment
// in the sweep order, and feeds the outcome to the controller. It appends
// what it took to dst, which must be empty, and returns the class taken
// (k when nothing was) and the extended dst.
func (h *Handle[K, V]) remove(k K, anyClass bool, max int, dst []V) (K, []V) {
	if c, out := h.take(h.id, k, anyClass, max, dst); len(out) > 0 {
		h.eng.ObserveLocal(len(out))
		return c, out
	}
	r := &h.sub
	r.key, r.anyClass, r.stole, r.out = k, anyClass, false, dst
	res := h.eng.Search(max)
	c, out := r.key, r.out
	r.out = nil // the substrate keeps no reference to the caller's output
	h.eng.Observe(policy.Feedback{Stole: r.stole, Aborted: res.Got == 0, Examined: res.Examined, Got: len(out)})
	return c, out
}

// take moves up to max elements of segment sIdx's picked bucket (see
// seg.pick) onto dst, returning the bucket's class and the extended dst.
// The handle's own segment gives its newest elements, as a bucket pop
// does. A victim gives the policy-chosen share (the StealAmount sees max
// as the requester's appetite): the share is reserved into the handle's
// steal buffer under the victim's lock alone, its newest max elements go
// to dst, and the surplus parks under the same class in the segment the
// placement picks after unlocking, so a take never holds two segment
// locks at once.
func (h *Handle[K, V]) take(sIdx int, k K, anyClass bool, max int, dst []V) (K, []V) {
	p := h.pool
	s := &p.segs[sIdx]
	s.mu.Lock()
	k, b := s.pick(k, anyClass)
	if b == nil {
		s.mu.Unlock()
		return k, dst
	}
	if sIdx == h.id {
		n := min(max, b.Len())
		dst = slices.Grow(dst, n)
		for range n {
			v, _ := b.Remove()
			dst = append(dst, v)
		}
		s.total -= n
		if b.Empty() {
			s.drop(k, b)
		}
		s.mu.Unlock()
		return k, dst
	}
	buf := b.TakeOut(h.stealBuf[:0], h.steal.Amount(b.Len(), max))
	s.total -= len(buf)
	if b.Empty() {
		s.drop(k, b)
	}
	s.mu.Unlock()
	if h.tr != nil {
		h.tr.Record(trace.ReserveTransfer, int32(sIdx), int32(len(buf)))
	}

	// The caller receives the most recently transferred elements, newest
	// first (the order a bucket pop would surface them); the surplus parks.
	moved := len(buf)
	n := min(moved, max)
	dst = append(dst, buf[moved-n:]...)
	slices.Reverse(dst[len(dst)-n:])
	if moved > n {
		d := &p.segs[p.members.Place(h.id)]
		d.mu.Lock()
		d.bucket(k).AddAll(buf[:moved-n])
		d.total += moved - n
		d.mu.Unlock()
	}
	clear(buf) // release element references for GC; the buffer itself is kept
	h.stealBuf = buf[:0]
	return k, dst
}

// keyedSubstrate adapts a keyed handle to engine.Substrate. It holds the
// in-flight remove's request: the class (or the any-class flag) and the
// output its probes append to. Each Probe runs the handle's take on one
// segment, and the engine drives the probes in the sweep order, so a
// sweep allocates nothing. The keyed pool needs no Enter/Exit bookkeeping:
// emptiness is decidable per class, so there is no lookers count to
// maintain.
type keyedSubstrate[K comparable, V any] struct {
	h        *Handle[K, V]
	key      K    // the requested class; under anyClass, the class taken
	anyClass bool // take from any class's bucket
	stole    bool // the probe that found elements took them from a victim
	out      []V  // the remove's output
}

var _ engine.Substrate = (*keyedSubstrate[int, int])(nil)

// Probe implements engine.Substrate: it takes up to want elements of the
// requested class from segment sIdx.
func (s *keyedSubstrate[K, V]) Probe(sIdx, want int) int {
	s.key, s.out = s.h.take(sIdx, s.key, s.anyClass, want, s.out)
	s.stole = len(s.out) > 0 && sIdx != s.h.id
	return len(s.out)
}

// Stopped implements engine.Substrate. A killed handle's in-flight
// sweep aborts at the next stop check instead of walking the ring on a
// dead member's behalf.
func (s *keyedSubstrate[K, V]) Stopped() bool { return !s.h.pool.members.Alive(s.h.id) }

// Enter implements engine.Substrate.
func (s *keyedSubstrate[K, V]) Enter(int) {}

// Exit implements engine.Substrate.
func (s *keyedSubstrate[K, V]) Exit() {}
