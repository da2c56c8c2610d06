// Package core implements the concurrent pool data structure the paper
// evaluates: an unordered collection partitioned into per-processor
// segments, with local adds and removes and a remote steal protocol whose
// every tunable decision — how much a steal transfers, which victims the
// search visits, where adds land, and how those knobs adapt online — is a
// pluggable value from internal/policy (Options.Policies). The paper's
// configuration is the default policy.Set: steal-half over one of the
// three search algorithms (tree, linear, or random; see internal/search).
//
// This is the "real" execution substrate: goroutines, element segments
// (segment.OwnerDeque: a lock-free owner bottom, with thieves serialized
// under the segment lock), and atomic round counters, suitable for
// adoption as a work-distribution structure. The paper's measured
// substrate (counter segments on a simulated 16-processor Butterfly)
// lives in internal/sim and consults the same policy.Set and search
// algorithms as this package.
//
// # Usage model
//
// A Pool has a fixed number of segments. Each participating process
// (goroutine) claims the Handle for one segment and performs all its
// operations through it:
//
//	p, _ := core.New[Task](core.Options{Segments: 8, Policies: policy.Set{Order: search.Tree}})
//	h := p.Handle(3)       // this goroutine owns segment 3
//	h.Put(t)               // local add
//	t, ok := h.Get()       // local remove, stealing remotely if empty
//
// A Handle may be used by only one goroutine at a time. Get returns
// ok=false only when the pool is closed, the handle is closed, or every
// open handle is simultaneously searching — the paper's livelock
// resolution ("when any process discovers that all the processes involved
// in the pool operations are looking ... it aborts its operation").
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"pools/internal/engine"
	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/segment"
	"pools/internal/trace"
)

// Options configures a Pool.
type Options struct {
	// Segments is the number of segments (and the maximum number of
	// participating processes). Required, >= 1.
	Segments int
	// Seed drives the random search algorithm's per-process streams.
	Seed uint64
	// Policies selects the pool's tunable decisions: steal amount, victim
	// order, placement of adds, and optional online control. Nil slots
	// take paper defaults: steal-half, linear search, and local placement.
	// Policies.Order takes any search.Kind; Policies.Steal = policy.One{}
	// is the steal-one ablation; a gifting Policies.Place (policy.GiftAll{}
	// is the paper's Section 5 directed adds) allocates the per-segment
	// mailboxes. See internal/policy.
	Policies policy.Set
	// Delay, when non-zero, injects wall-clock busy-waits per access to
	// emulate a NUMA or loosely-coupled machine (Section 4.3's delays).
	Delay numa.Delayer
	// Topology assigns hop distances to segment pairs, making "remote"
	// non-uniform on the real pool exactly as CostModel.Topo does in the
	// simulator. It feeds two things: CollectStats classifies every remote
	// probe as near or cross-cluster (metrics.PoolStats.CrossProbes), and
	// when Delay is active with no topology of its own, the Delayer's cost
	// model inherits this one so busy-wait delays scale with hop distance.
	// Nil falls back to Delay.Model.Topo (uniform when that is nil too).
	Topology numa.Topology
	// CollectStats enables per-operation timing and steal accounting
	// (small overhead; required by the benchmarks and harness).
	CollectStats bool
	// SegmentCap, when positive, bounds each segment for TryPut; Put
	// ignores it. This implements the paper's footnote: "an add operation
	// encountering a full segment ... could be handled in a symmetric
	// fashion, adding remotely to a segment with sufficient capacity."
	SegmentCap int
	// TraceBuf, when positive, attaches a flight recorder of that many
	// events to every handle (internal/trace): searches, probes, ring
	// escalations, reserve/transfer edges, gift traffic, and termination
	// verdicts, timestamped in microseconds since pool creation. A
	// handle's ring is allocated by its first event. Zero disables
	// tracing; the disabled hot path stays 0 allocs/op and pays only a
	// nil check per emission site.
	TraceBuf int
}

// ErrBadOptions is returned by New for invalid configuration.
var ErrBadOptions = errors.New("core: invalid options")

// pad keeps hot per-segment state on separate cache lines.
type pad [64]byte

// seg is one segment: an OwnerDeque whose lock-free bottom belongs to the
// segment's handle and whose steal lock serializes thieves. The deque
// pads its own header (owner line / top line / steal line) and tiles to
// a cache-line multiple, so adjacent segments in the slice never share a
// line — see segment.TestOwnerDequeLayout.
type seg[T any] struct {
	dq segment.OwnerDeque[T]
}

// Pool is a concurrent pool of T. Create with New; the zero value is not
// usable.
type Pool[T any] struct {
	opts      Options
	pol       policy.Set    // resolved policies (no nil slots)
	topo      numa.Topology // resolved hop distances (nil = uniform)
	segs      []seg[T]
	tree      engine.Tree  // the round counters (sized under a tree-search plan only)
	boxes     []mailbox[T] // directed-add mailboxes (gifting placements only)
	giftOrder [][]int      // per-giver mailbox delivery order (hop-cost ranked under a topology)
	handles   []*Handle[T]
	members   *engine.Membership // dynamic membership: alive/victim bits + the coverage epoch
	base      time.Time          // monotonic time zero for op timing and the flight recorder

	// The pool-wide words every search touches share one cache line, and
	// the tail pad fills it: a 512-byte Pool sits in the 512-byte size
	// class, whose objects start on a line boundary (TestPoolLayout).
	lookers atomic.Int32  // registered handles currently inside a search
	open    atomic.Int32  // handles registered and not yet closed
	moving  atomic.Int32  // steals mid-transfer (victim unlocked, surplus not yet deposited)
	version atomic.Uint64 // bumped for every mutation an in-flight search could miss (noteAdd)
	closed  atomic.Bool
	_       [36]byte
}

// New creates a pool with the given options.
func New[T any](opts Options) (*Pool[T], error) {
	if opts.Segments < 1 {
		return nil, fmt.Errorf("%w: Segments = %d, need >= 1", ErrBadOptions, opts.Segments)
	}
	if opts.SegmentCap < 0 {
		return nil, fmt.Errorf("%w: SegmentCap = %d", ErrBadOptions, opts.SegmentCap)
	}
	if opts.TraceBuf < 0 {
		return nil, fmt.Errorf("%w: TraceBuf = %d", ErrBadOptions, opts.TraceBuf)
	}
	// Resolve the policy set: nil slots take paper defaults.
	pol := opts.Policies.WithDefaults()
	// Resolve the hop topology: an explicit Options.Topology wins and is
	// threaded into an active Delayer that has none, so the same rings
	// drive both the injected delays and the cross-probe accounting.
	topo := opts.Topology
	if topo == nil {
		topo = opts.Delay.Model.Topo
	} else if opts.Delay.Scale != 0 && opts.Delay.Model.Topo == nil {
		opts.Delay.Model.Topo = topo
	}
	p := &Pool[T]{
		opts:    opts,
		pol:     pol,
		topo:    topo,
		segs:    make([]seg[T], opts.Segments),
		members: engine.NewMembership(opts.Segments),
		base:    time.Now(),
	}
	var clock func() int64
	if opts.TraceBuf > 0 {
		// Microseconds since p.base: the op stats' monotonic time zero.
		// One closure serves every handle's recorder.
		clock = func() int64 { return time.Since(p.base).Microseconds() }
	}
	p.handles = make([]*Handle[T], opts.Segments)
	for i := range p.handles {
		h := &Handle[T]{pool: p, id: i, sample: sampler{
			on:   opts.CollectStats,
			x:    rng.Mix(rng.SubSeed(opts.Seed, i)) | 1,
			base: p.base,
		}}
		h.sub.h = h
		var stats *metrics.PoolStats
		if opts.CollectStats {
			stats = &h.stats
		}
		if opts.TraceBuf > 0 {
			h.tr = trace.NewRecorder(i, opts.TraceBuf, clock)
			p.members.Attach(i, h.tr)
		}
		h.eng = engine.New(engine.Config{
			Self:      i,
			Segments:  opts.Segments,
			Policies:  pol,
			Seed:      rng.SubSeed(opts.Seed, i),
			Topology:  topo,
			Stats:     stats,
			SizeProbe: h.sizeProbe(),
			Tree:      &p.tree,
			Tracer:    h.tr,
			Members:   p.members,
		}, &h.sub, engine.NewCoverage(opts.Segments, coverageState[T]{p}))
		// An unknown search kind plans no searcher.
		plan := h.eng.Plan()
		if plan.Searcher == nil {
			return nil, fmt.Errorf("%w: order %s plans no search", ErrBadOptions, pol.Order.Name())
		}
		// Mailboxes exist only under a placement that can actually gift,
		// so a non-gifting one gets the zero-overhead pool of the
		// zero-value configuration.
		if h.gift = h.eng.Gift(); h.gift != nil && p.boxes == nil {
			p.allocBoxes()
		}
		h.steal = h.eng.StealAmount()
		p.handles[i] = h
	}
	return p, nil
}

// Tracer returns segment i's flight recorder, nil unless the pool was
// built with Options.TraceBuf > 0. Safe to call (and dump) while the
// pool runs; the recorder synchronizes record-vs-snapshot itself.
func (p *Pool[T]) Tracer(i int) *trace.Recorder { return p.handles[i].tr }

// Timelines snapshots every handle's flight recorder for export
// (trace.ChromeJSON / trace.WriteCSV). It returns nil when tracing is
// disabled.
func (p *Pool[T]) Timelines() []trace.Timeline { return p.members.Timelines() }

// allocBoxes allocates the directed-add mailboxes and, under a topology,
// every giver's hop-ranked delivery order. Without a topology the order
// is the plain ring scan, which giftOut computes with modular arithmetic
// for free; the O(n²) precompute pays off only when there are hop
// distances to rank by.
func (p *Pool[T]) allocBoxes() {
	p.boxes = make([]mailbox[T], len(p.segs))
	for i := range p.boxes {
		p.boxes[i].init()
	}
	if p.topo != nil {
		p.giftOrder = giftOrders(len(p.segs), p.topo)
	}
}

// sizeProbe builds the handle's placement size-probe closure once, so the
// add hot path under a size-aware placement does not allocate a closure
// per Put. Each call charges one probe delay — probing is not free,
// exactly as in the simulator — and the engine counts it in the
// cross-probe accounting.
func (h *Handle[T]) sizeProbe() func(s int) int {
	return func(s int) int {
		p := h.pool
		p.opts.Delay.Delay(numa.AccessProbe, h.id, s)
		return p.segs[s].dq.Len()
	}
}

// Segments returns the number of segments.
func (p *Pool[T]) Segments() int { return p.opts.Segments }

// Handle returns the handle for segment i. Handles are created with the
// pool; repeated calls return the same handle. It panics if i is out of
// range (a programmer error).
func (p *Pool[T]) Handle(i int) *Handle[T] {
	return p.handles[i]
}

// Len returns the current total number of elements, including undelivered
// directed-add gifts. Each segment is read with lock-free per-segment
// snapshots, so the result is consistent per segment, not a linearizable
// global count.
func (p *Pool[T]) Len() int {
	total := 0
	for i := range p.segs {
		total += p.segs[i].dq.Len()
	}
	for i := range p.boxes {
		total += int(p.boxes[i].banked.Load())
	}
	return total
}

// SegmentLen returns the current size of segment i, for observability and
// the segment-trace experiments.
func (p *Pool[T]) SegmentLen(i int) int {
	return p.segs[i].dq.Len()
}

// SeedEvenly distributes items round-robin across segments, bypassing
// per-operation accounting. It is intended for initializing experiments
// ("a pool initialized with only 320 elements") and must not race with
// concurrent operations. Seeds arrive through each segment's foreign
// overflow (the seeder owns no segment); the owner migrates them into
// its ring on first contact.
func (p *Pool[T]) SeedEvenly(items []T) {
	for i, v := range items {
		p.segs[i%len(p.segs)].dq.AddForeign(v)
	}
	p.version.Add(1)
}

// Drain removes and returns all elements, including undelivered
// directed-add gifts. It must not race with concurrent operations.
func (p *Pool[T]) Drain() []T {
	var out []T
	for i := range p.segs {
		out = p.segs[i].dq.StealAll(out)
	}
	for i := range p.boxes {
		if g, ok := p.boxes[i].tryTake(); ok {
			out = append(out, g.elements()...)
		}
	}
	return out
}

// Kill forcibly removes handle i from the pool's membership, as if its
// process had crashed (or been descheduled for good). Unlike Close —
// which the owning goroutine calls on itself — Kill may be called from
// any goroutine; the victim's in-flight operation aborts at its next
// stop check. With drain=true the killed segment's elements (and any
// gift stranded in its mailbox) are redistributed across the surviving
// victim segments and the segment leaves the victim set — searches skip
// it, deposits aimed at it are redirected. With drain=false the segment
// degrades to a steal-only victim: its reserve stays in place and
// drains through the survivors' steals, the dynamic generalization of
// Close's parked-gift path. Either way the membership epoch is bumped,
// so no in-flight search can certify emptiness against the old
// membership. Kill refuses to remove the last live member and reports
// whether the kill happened.
func (p *Pool[T]) Kill(i int, drain bool) bool {
	// Order matters: the membership store first, so any deposit that
	// starts after it sees the new victim bit and redirects; then the
	// handle state, so the owner's next operation fails; then the wait
	// on in-flight transfers, so a surplus reserved before the kill has
	// landed (possibly in segment i) before the drain collects it.
	if !p.members.Leave(i, !drain) {
		return false
	}
	p.handles[i].withdraw()
	if drain {
		for p.moving.Load() > 0 {
			runtime.Gosched()
		}
		p.redistribute(i)
	}
	return true
}

// redistribute empties killed segment i — deque and stranded mailbox
// gift — across the surviving victim segments, one element at a time
// (engine.Membership.Relocate). The moving count guards the whole
// relocation exactly like a steal's in-buffer window.
func (p *Pool[T]) redistribute(i int) {
	p.moving.Add(1)
	items := p.segs[i].dq.StealAll(nil)
	if p.boxes != nil {
		if g, ok := p.boxes[i].tryTake(); ok {
			items = append(items, g.elements()...)
		}
	}
	// The redistributor is not the destination's owner, so the
	// relocated elements go through its foreign overflow.
	p.members.Relocate(i, len(items), func(t, k int) int {
		p.segs[t].dq.AddForeign(items[k])
		return 1
	})
	p.version.Add(1)
	p.moving.Add(-1)
}

// Revive re-admits a killed (or closed) handle i: the handle returns to
// its pre-Register idle state — its owner's next operation re-registers
// it — and segment i rejoins the victim set, re-entering victim orders,
// gift deliveries, and directed placements. The epoch bump re-arms
// in-flight searches so the rejoined (possibly refilled) segment is
// probed before any emptiness certificate. Revive reports whether the
// handle was in fact dead.
func (p *Pool[T]) Revive(i int) bool {
	if !p.handles[i].state.CompareAndSwap(hsClosed, hsIdle) {
		return false
	}
	p.members.Join(i)
	return true
}

// Alive reports whether handle i is a live member (not killed or
// closed out of the membership).
func (p *Pool[T]) Alive(i int) bool { return p.members.Alive(i) }

// Victim reports whether searches still probe segment i.
func (p *Pool[T]) Victim(i int) bool { return p.members.Victim(i) }

// Epoch returns the pool's membership epoch: bumped on every Kill,
// Revive, and kill-time redistribution.
func (p *Pool[T]) Epoch() uint64 { return p.members.Epoch() }

// noteAdd publishes an add that has already stored its elements to the
// searches in flight: it bumps the version only when some handle is
// inside a search. The version is evidence for engine.Coverage alone, and
// only a running search reads it, so an add made while nobody searches
// leaves the pool-wide word (and its cache line) untouched.
//
// This is the Dekker pattern over Go's sequentially consistent atomics.
// The add publishes before this lookers load: OwnerDeque's SC bottom
// store, or a foreign add's fcount Add inside the segment lock. A search
// raises lookers (substrate.Enter) before its first probe, and every
// probe reads the segment through SC loads or under that lock. In the
// single total order either the load comes after the searcher's Enter —
// it sees lookers > 0 and bumps, so the searcher's Coverage re-arms — or
// it comes before, and then so does the publish, so every probe of that
// search sees the element. The other bumps stay unconditional: a steal's
// deposit (the moving count is dropped only after it), redistribute
// (which also bumps the epoch), gift sends (a gift goes only to a
// searcher's mailbox), and SeedEvenly.
func (p *Pool[T]) noteAdd() {
	if p.lookers.Load() > 0 {
		p.version.Add(1)
	}
}

// Close marks the pool closed: every in-flight and future search aborts
// and Get returns false. Close is idempotent and safe to call from any
// goroutine.
func (p *Pool[T]) Close() { p.closed.Store(true) }

// Closed reports whether Close has been called.
func (p *Pool[T]) Closed() bool { return p.closed.Load() }

// Stats aggregates the per-handle statistics. Call it only while no
// operations are in flight (for example, after the worker goroutines have
// joined); per-handle collectors are unsynchronized by design.
func (p *Pool[T]) Stats() metrics.PoolStats {
	var total metrics.PoolStats
	for _, h := range p.handles {
		total.Merge(&h.stats)
	}
	return total
}
