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
//	p, _ := core.New[Task](core.Options{Segments: 8, Search: search.Linear})
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
	"sync"
	"sync/atomic"
	"time"

	"pools/internal/engine"
	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/segment"
	"pools/internal/trace"
)

// Options configures a Pool.
type Options struct {
	// Segments is the number of segments (and the maximum number of
	// participating processes). Required, >= 1.
	Segments int
	// Search selects the steal-search algorithm. Default: search.Linear.
	Search search.Kind
	// Seed drives the random search algorithm's per-process streams.
	Seed uint64
	// Policies selects the pool's tunable decisions: steal amount, victim
	// order, placement of adds, and optional online control. Nil slots
	// take paper defaults: steal-half, the Search algorithm's order, and
	// local placement. Policies.Steal = policy.One{} is the steal-one
	// ablation; a gifting Policies.Place (policy.GiftAll{} is the paper's
	// Section 5 directed adds) allocates the per-segment mailboxes. See
	// internal/policy.
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
	// TreeLocking, when true, protects tree round counters with mutexes as
	// the paper describes; the default uses lock-free atomic max, a modern
	// equivalent measured as an ablation.
	TreeLocking bool
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
	// verdicts, timestamped in microseconds since pool creation. Zero
	// disables tracing; the disabled hot path stays 0 allocs/op and pays
	// only a nil check per emission site.
	TraceBuf int
}

// ErrBadOptions is returned by New for invalid configuration.
var ErrBadOptions = errors.New("core: invalid options")

// pad keeps hot per-segment state on separate cache lines.
type pad [64]byte

// seg is one segment: an OwnerDeque whose lock-free bottom belongs to the
// segment's handle and whose steal lock serializes thieves. The deque
// pads its own header (owner line / thief line / lock tail) and tiles to
// a cache-line multiple, so adjacent segments in the slice never share a
// line — see segment.TestOwnerDequeLayout.
type seg[T any] struct {
	dq segment.OwnerDeque[T]
}

type treeNode struct {
	round atomic.Uint64
	mu    sync.Mutex // used only when Options.TreeLocking
	_     pad
}

// Pool is a concurrent pool of T. Create with New; the zero value is not
// usable.
type Pool[T any] struct {
	opts      Options
	pol       policy.Set    // resolved policies (no nil slots)
	topo      numa.Topology // resolved hop distances (nil = uniform)
	segs      []seg[T]
	nodes     []treeNode   // heap-indexed tree round counters (tree search only)
	boxes     []mailbox[T] // directed-add mailboxes (directed placement only)
	giftOrder [][]int      // per-giver mailbox delivery order (hop-cost ranked under a topology)
	leaves    int
	handles   []*Handle[T]
	members   *engine.Membership // dynamic membership: alive/victim bits + the coverage epoch
	base      time.Time          // monotonic time zero for op timing and the flight recorder

	lookers atomic.Int32  // registered handles currently inside a search
	open    atomic.Int32  // handles registered and not yet closed
	moving  atomic.Int32  // steals mid-transfer (victim unlocked, surplus not yet deposited)
	version atomic.Uint64 // bumped on every mutation that can feed a search
	closed  atomic.Bool
}

// New creates a pool with the given options.
func New[T any](opts Options) (*Pool[T], error) {
	if opts.Segments < 1 {
		return nil, fmt.Errorf("%w: Segments = %d, need >= 1", ErrBadOptions, opts.Segments)
	}
	if opts.Search == 0 {
		opts.Search = search.Linear
	}
	switch opts.Search {
	case search.Linear, search.Random, search.Tree:
	default:
		return nil, fmt.Errorf("%w: unknown search kind %d", ErrBadOptions, int(opts.Search))
	}
	if opts.SegmentCap < 0 {
		return nil, fmt.Errorf("%w: SegmentCap = %d", ErrBadOptions, opts.SegmentCap)
	}
	if opts.TraceBuf < 0 {
		return nil, fmt.Errorf("%w: TraceBuf = %d", ErrBadOptions, opts.TraceBuf)
	}
	// Resolve the policy set: nil slots take paper defaults.
	pol := opts.Policies.WithDefaults(opts.Search)
	// Mailboxes exist only under a placement that can actually gift:
	// an explicit policy.Local (the no-op placement) gets the same
	// zero-overhead pool as the zero-value configuration.
	_, localPlace := pol.Place.(policy.Local)
	directed := !localPlace
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
		leaves:  search.NumLeavesFor(opts.Segments),
		members: engine.NewMembership(opts.Segments),
		base:    time.Now(),
	}
	if opts.Search == search.Tree || policy.KindOf(pol.Order) == search.Tree {
		p.nodes = make([]treeNode, 2*p.leaves)
	}
	if directed {
		p.boxes = make([]mailbox[T], opts.Segments)
		for i := range p.boxes {
			p.boxes[i].init()
		}
		if topo != nil {
			// Without a topology the delivery order is the plain ring
			// scan, which giftOut computes with modular arithmetic for
			// free; the O(n²) precompute pays off only when there are
			// hop distances to rank by.
			p.giftOrder = giftOrders(opts.Segments, topo)
		}
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
			h.tr = trace.NewRecorder(i, opts.TraceBuf, p.traceClock)
		}
		h.eng = engine.New(engine.Config{
			Self:      i,
			Segments:  opts.Segments,
			Policies:  pol,
			Seed:      rng.SubSeed(opts.Seed, i),
			Topology:  topo,
			Stats:     stats,
			SizeProbe: h.sizeProbe(),
			Tracer:    h.tr,
			Members:   p.members,
		}, &h.sub, engine.NewCoverage(opts.Segments, coverageState[T]{p}))
		h.steal = h.eng.StealAmount()
		p.handles[i] = h
	}
	return p, nil
}

// traceClock is the flight recorder's wall clock: microseconds since
// pool creation, shared by every handle so their tracks align. It reads
// the monotonic clock only (p.base carries a monotonic reading), the
// same time zero the op-latency stats use.
func (p *Pool[T]) traceClock() int64 { return time.Since(p.base).Microseconds() }

// Tracer returns segment i's flight recorder, nil unless the pool was
// built with Options.TraceBuf > 0. Safe to call (and dump) while the
// pool runs; the recorder synchronizes record-vs-snapshot itself.
func (p *Pool[T]) Tracer(i int) *trace.Recorder { return p.handles[i].tr }

// Timelines snapshots every handle's flight recorder for export
// (trace.ChromeJSON / trace.WriteCSV). It returns nil when tracing is
// disabled.
func (p *Pool[T]) Timelines() []trace.Timeline {
	if p.opts.TraceBuf <= 0 {
		return nil
	}
	recs := make([]*trace.Recorder, len(p.handles))
	for i, h := range p.handles {
		recs[i] = h.tr
	}
	return trace.Collect(recs...)
}

// sizeProbe builds the handle's Director size-probe closure once, so the
// add hot path under a size-aware placement does not allocate a closure
// per Put. Each call charges one probe delay and counts in the
// cross-probe accounting — probing is not free, exactly as in the
// simulator.
func (h *Handle[T]) sizeProbe() func(s int) int {
	return func(s int) int {
		p := h.pool
		p.opts.Delay.Delay(numa.AccessProbe, h.id, s)
		h.eng.NoteProbe(s)
		return p.segs[s].dq.Len()
	}
}

// BatchSize returns the batch size the pool-wide controller recommends
// for a workload configured at current, or current itself without one.
// Per-handle controllers (policy.PerHandle) recommend through
// Handle.BatchSize instead, which batch drivers should prefer; this
// pool-level view exists for observability and pool-wide sets.
func (p *Pool[T]) BatchSize(current int) int {
	if p.pol.Control == nil {
		return current
	}
	return p.pol.Control.BatchSize(current)
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
	h := p.handles[i]
	// Order matters: the membership store first, so any deposit that
	// starts after it sees the new victim bit and redirects; then the
	// handle state, so the owner's next operation fails; then the wait
	// on in-flight transfers, so a surplus reserved before the kill has
	// landed (possibly in segment i) before the drain collects it.
	if !p.members.Leave(i, !drain) {
		return false
	}
	h.withdraw()
	if h.tr != nil {
		d := int32(0)
		if drain {
			d = 1
		}
		h.tr.Record(trace.MemberLeave, int32(i), d)
	}
	if drain {
		for p.moving.Load() > 0 {
			runtime.Gosched()
		}
		p.redistribute(i)
	}
	return true
}

// redistribute empties killed segment i — deque and stranded mailbox
// gift — across the surviving victim segments, round-robin. The moving
// count guards the whole relocation exactly like a steal's in-buffer
// window, and the epoch bump at the end forces every search that had
// already covered a destination segment to re-scan it before it may
// certify emptiness.
func (p *Pool[T]) redistribute(i int) {
	p.moving.Add(1)
	items := p.segs[i].dq.StealAll(nil)
	if p.boxes != nil {
		if g, ok := p.boxes[i].tryTake(); ok {
			items = append(items, g.elements()...)
		}
	}
	n := len(p.segs)
	placed := 0
	for off, k := 0, 0; off < n && k < len(items); off++ {
		t := (i + 1 + off) % n
		if !p.members.Victim(t) {
			continue
		}
		// Victims share the relocated elements evenly: ceil of what
		// remains over the victims not yet visited this pass.
		take := (len(items) - k + (p.members.Live() - placed) - 1) / max(p.members.Live()-placed, 1)
		if take < 1 {
			take = 1
		}
		if k+take > len(items) {
			take = len(items) - k
		}
		// The redistributor is not the destination's owner, so the
		// relocated elements go through its foreign overflow.
		p.segs[t].dq.AddForeignAll(items[k : k+take])
		k += take
		placed++
	}
	p.version.Add(1)
	e := p.members.Bump()
	if h := p.handles[i]; h.tr != nil {
		h.tr.Record(trace.EpochBump, int32(e&0x7fffffff), int32(len(items)))
	}
	p.moving.Add(-1)
}

// Revive re-admits a killed (or closed) handle i: the handle returns to
// its pre-Register idle state — its owner's next operation re-registers
// it — and segment i rejoins the victim set, re-entering victim orders,
// gift deliveries, and Director placements. The epoch bump re-arms
// in-flight searches so the rejoined (possibly refilled) segment is
// probed before any emptiness certificate. Revive reports whether the
// handle was in fact dead.
func (p *Pool[T]) Revive(i int) bool {
	h := p.handles[i]
	if !h.state.CompareAndSwap(hsClosed, hsIdle) {
		return false
	}
	p.members.Join(i)
	if h.tr != nil {
		h.tr.Record(trace.MemberJoin, int32(i), 0)
	}
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

// placeTarget redirects a deposit aimed at segment s to the nearest
// victim segment when s has left the victim set (a drain-mode kill), so
// no element lands where searches no longer look. On the no-churn path
// it costs one atomic load.
func (p *Pool[T]) placeTarget(s int) int {
	if p.members.Victim(s) {
		return s
	}
	if t := p.members.FallbackVictim(s); t >= 0 {
		return t
	}
	return s
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

// roundOf reads tree node n's round counter.
func (p *Pool[T]) roundOf(n int) uint64 {
	if p.opts.TreeLocking {
		nd := &p.nodes[n]
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return nd.round.Load()
	}
	return p.nodes[n].round.Load()
}

// maxRound raises node n's counter to r if greater.
func (p *Pool[T]) maxRound(n int, r uint64) {
	nd := &p.nodes[n]
	if p.opts.TreeLocking {
		nd.mu.Lock()
		if nd.round.Load() < r {
			nd.round.Store(r)
		}
		nd.mu.Unlock()
		return
	}
	for {
		cur := nd.round.Load()
		if cur >= r || nd.round.CompareAndSwap(cur, r) {
			return
		}
	}
}
