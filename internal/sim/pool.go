package sim

import (
	"fmt"

	"pools/internal/engine"
	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/segment"
	"pools/internal/trace"
)

// PoolConfig configures a simulated concurrent pool.
type PoolConfig struct {
	Procs int            // one segment and one process per processor
	Costs numa.CostModel // access cost model (numa.ButterflyCosts())
	Seed  uint64         // drives the random search algorithm
	// Policies selects the pool's tunable decisions (steal amount, victim
	// order, size-aware placement, online control), exactly as
	// core.Options.Policies does for the real pool; nil slots take paper
	// defaults (Order: search.Linear). A placement applies through its
	// plan's candidates (policy.PlacePlan; GiftToEmptiest and friends),
	// with every size probe charged at the cost model's AccessProbe rate;
	// its Gift law is ignored — the simulated pool has no directed-add
	// mailboxes.
	Policies policy.Set
	// Trace enables per-segment size traces (Figures 3-6).
	Trace bool
	// SearchLaps, when positive, replaces the paper's all-searching
	// livelock rule with a bounded search: a remove gives up after
	// SearchLaps fruitless laps of the ring (engine.Bounded). The open-loop
	// driver requires this — under external arrivals most processes are
	// idle between operations, never "searching", so the all-searching
	// observation can starve a lone searcher on a drained pool for tens of
	// virtual milliseconds. An open-loop remove instead times out quickly
	// (an abort, charged for its probes) and the arrival stream moves on.
	SearchLaps int
	// EventBuf, when positive, attaches a flight recorder of that many
	// events to every processor (internal/trace), timestamped on the
	// simulator's virtual clock — so the recorded protocol timeline is
	// deterministic for a given seed and can be pinned by golden files.
	EventBuf int
}

// Pool is a concurrent pool living inside a simulation: segments hold real
// elements of type T, every access charges virtual time, and segment/tree
// contention is modelled by Resources. The paper's measured configuration
// (counter-only segments) corresponds to Pool[Token].
type Pool[T any] struct {
	cfg PoolConfig
	pol policy.Set // resolved policies (no nil slots)

	segs    []segment.Deque[T]
	segRes  []Resource
	tree    engine.Tree // the round counters (sized under a tree-search plan only)
	nodeRes []Resource  // the tree nodes' contention, charged per access
	counter Resource    // the shared "processes looking" counter

	lookers      int
	participants int
	drainAbort   bool
	emptyAbort   bool // latched when all participants were seen searching

	members *engine.Membership // dynamic membership: alive/victim bits + epoch

	traces []metrics.Trace
}

// Token is the element type for workload experiments where element values
// do not matter (the paper stores only counts).
type Token struct{}

// NewPool creates a simulated pool. One Proc handle per processor must be
// created before Run.
func NewPool[T any](cfg PoolConfig) *Pool[T] {
	if cfg.Procs < 1 {
		panic(fmt.Sprintf("sim: pool with %d procs", cfg.Procs))
	}
	pol := cfg.Policies.WithDefaults()
	p := &Pool[T]{
		cfg:          cfg,
		pol:          pol,
		segs:         make([]segment.Deque[T], cfg.Procs),
		segRes:       make([]Resource, cfg.Procs),
		participants: cfg.Procs,
		members:      engine.NewMembership(cfg.Procs),
	}
	if cfg.Trace {
		p.traces = make([]metrics.Trace, cfg.Procs)
	}
	return p
}

// Timelines snapshots every processor's flight recorder for export,
// nil unless PoolConfig.EventBuf was set. Processors that never bound
// a Proc contribute no timeline.
func (p *Pool[T]) Timelines() []trace.Timeline { return p.members.Timelines() }

// Seed deposits n elements round-robin across the segments before the run
// ("a pool initialized with only 320 elements"), charging no virtual time.
// gen supplies element values; for Token pools use func(int) Token.
func (p *Pool[T]) Seed(n int, gen func(i int) T) {
	for i := 0; i < n; i++ {
		p.segs[i%len(p.segs)].Add(gen(i))
	}
}

// Inject places an element in segment 0 before the run without charging
// virtual time (used to seed task roots).
func (p *Pool[T]) Inject(v T) { p.segs[0].Add(v) }

// Len returns the total number of elements currently pooled.
func (p *Pool[T]) Len() int {
	total := 0
	for i := range p.segs {
		total += p.segs[i].Len()
	}
	return total
}

// SegmentLen returns segment i's size.
func (p *Pool[T]) SegmentLen(i int) int { return p.segs[i].Len() }

// Traces returns the per-segment size traces (nil unless PoolConfig.Trace).
func (p *Pool[T]) Traces() []metrics.Trace { return p.traces }

// SegmentWaited returns the total queueing delay suffered at segment i,
// the paper's interference measure.
func (p *Pool[T]) SegmentWaited(i int) int64 { return p.segRes[i].Waited() }

// AbortAll makes every in-progress and future search abort; the harness
// sets it when the operation budget is exhausted so that a consumer
// mid-search does not spin forever after the run ends.
func (p *Pool[T]) AbortAll() { p.drainAbort = true }

// Kill removes processor i from the simulated membership at the current
// virtual time, as if its processor failed: the victim's in-flight
// search aborts at its next stop check and it stops counting toward the
// all-searching rule. With drain=true its segment is emptied and
// redistributed across the surviving victim segments (charged to the
// calling driver, like any relocation on the simulated machine); with
// drain=false the segment degrades to a steal-only victim. Kill refuses
// to remove the last live member and reports whether it happened.
func (p *Pool[T]) Kill(env *Env, i int, drain bool) bool {
	if !p.members.Leave(i, !drain) {
		return false
	}
	if p.participants > 0 {
		p.participants--
	}
	if drain {
		p.relocate(env, i)
	}
	return true
}

// relocate empties killed segment i one element at a time across the
// surviving victim segments (engine.Membership.Relocate), charging the
// driver one remove access for the drain and one add access per
// element. The simulator is cooperative — no other processor runs
// during the relocation — so no transfer guard is needed.
func (p *Pool[T]) relocate(env *Env, i int) {
	env.Charge(&p.segRes[i], p.cfg.Costs.Cost(numa.AccessRemove, i, i))
	items := p.segs[i].Drain()
	p.recordTrace(env, i)
	p.members.Relocate(i, len(items), func(t, k int) int {
		env.Charge(&p.segRes[t], p.cfg.Costs.Cost(numa.AccessAdd, i, t))
		p.segs[t].Add(items[k])
		p.recordTrace(env, t)
		return 1
	})
}

// Revive re-admits processor i: it rejoins the membership (and the
// participant count), its segment rejoins the victim set, and the
// empty-abort latch is cleared so searches re-observe the pool under
// the new membership. It reports whether i was in fact dead.
func (p *Pool[T]) Revive(i int) bool {
	if !p.members.Join(i) {
		return false
	}
	p.participants++
	p.emptyAbort = false
	return true
}

// Alive reports whether processor i is a live member.
func (p *Pool[T]) Alive(i int) bool { return p.members.Alive(i) }

// recordTrace logs segment s's size at the current virtual time.
func (p *Pool[T]) recordTrace(env *Env, s int) {
	if p.traces == nil {
		return
	}
	p.traces[s].Record(env.Now(), int64(p.segs[s].Len()))
}

// Proc is one virtual processor's attachment to a simulated pool,
// analogous to core.Handle. The search-steal protocol lives in
// internal/engine; the Proc supplies the substrate (virtual-time charges
// against simulated resources) and keeps the per-operation accounting.
type Proc[T any] struct {
	pool  *Pool[T]
	env   *Env
	id    int
	eng   *engine.Engine
	steal policy.StealAmount // resolved steal amount, cached off the engine for the probe loop
	stats metrics.PoolStats
	tr    *trace.Recorder // flight recorder (nil unless PoolConfig.EventBuf > 0)
	sub   simSubstrate[T]
}

// Proc binds virtual processor env to segment env.ID(). Call once per
// processor, inside or before its body.
func (p *Pool[T]) Proc(env *Env) *Proc[T] {
	id := env.ID()
	pr := &Proc[T]{pool: p, env: env, id: id}
	pr.sub.proc = pr
	var term engine.Termination = engine.NewLaps(p.cfg.Procs, lapsState[T]{p})
	if p.cfg.SearchLaps > 0 {
		term = engine.NewBounded(p.cfg.SearchLaps * p.cfg.Procs)
	}
	var rec *trace.Recorder
	if p.cfg.EventBuf > 0 {
		rec = trace.NewRecorder(id, p.cfg.EventBuf, env.Now)
		p.members.Attach(id, rec)
		pr.tr = rec
	}
	pr.eng = engine.New(engine.Config{
		Self:      id,
		Segments:  p.cfg.Procs,
		Policies:  p.pol,
		Seed:      rng.SubSeed(p.cfg.Seed, id),
		Topology:  p.cfg.Costs.Topo,
		Stats:     &pr.stats,
		SizeProbe: pr.sizeProbe(),
		Tree:      &p.tree,
		Tracer:    rec,
		Members:   p.members,
	}, &pr.sub, term)
	plan := pr.eng.Plan()
	if plan.Searcher == nil {
		panic(fmt.Sprintf("sim: order %s plans no search", p.pol.Order.Name()))
	}
	if plan.Tree && p.nodeRes == nil {
		p.nodeRes = make([]Resource, p.tree.Len())
	}
	pr.steal = pr.eng.StealAmount()
	return pr
}

// sizeProbe builds the placement size-probe closure once per processor: on
// the simulated machine, probing for the emptiest segment visibly costs
// virtual time, which is the trade-off the locality experiments measure.
func (pr *Proc[T]) sizeProbe() func(s int) int {
	return func(s int) int {
		p := pr.pool
		pr.env.Charge(&p.segRes[s], p.cfg.Costs.Cost(numa.AccessProbe, pr.id, s))
		return p.segs[s].Len()
	}
}

// Stats returns the processor's operation statistics collector.
func (pr *Proc[T]) Stats() *metrics.PoolStats { return &pr.stats }

// BatchSize returns the batch size this processor's controller recommends
// for a workload configured at current, or current itself without a
// controller — the simulated analogue of core.Handle.BatchSize.
func (pr *Proc[T]) BatchSize(current int) int { return pr.eng.BatchSize(current) }

// ControlSample reports the controller's current operating point for
// trajectory traces: the steal fraction in permil and the batch size it
// would recommend for the configured batch. ok is false without a
// controller.
func (pr *Proc[T]) ControlSample(configured int) (fracPermil, batch int64, ok bool) {
	ctl := pr.eng.Controller()
	if ctl == nil {
		return 0, 0, false
	}
	return int64(ctl.StealFraction()*1000 + 0.5), int64(ctl.BatchSize(configured)), true
}

// Retire withdraws this processor from the participant count when its body
// finishes while others may still be searching (mirrors core.Handle.Close).
func (pr *Proc[T]) Retire() {
	if pr.pool.participants > 0 {
		pr.pool.participants--
	}
}

// since returns the virtual µs elapsed since start, as a stats duration:
// the simulator times every operation.
func (pr *Proc[T]) since(start int64) float64 { return float64(pr.env.Now() - start) }

// Put adds an element to the local segment — or to the segment a
// placement plan selects — charging the add cost at the local or
// remote rate accordingly.
func (pr *Proc[T]) Put(v T) {
	p := pr.pool
	start := pr.env.Now()
	target := pr.eng.DirectTarget(1)
	pr.env.Charge(&p.segRes[target], p.cfg.Costs.Cost(numa.AccessAdd, pr.id, target))
	p.segs[target].Add(v)
	p.emptyAbort = false // elements exist again: searches may proceed
	p.recordTrace(pr.env, target)
	pr.stats.RecordAdd(pr.since(start))
}

// PutAll adds every element of vs to one segment (the local one, or a
// placement plan's choice), charging a single add access for the
// whole batch — the amortization the batch API exists to measure: one
// segment acquisition (and one queueing exposure at a contended segment)
// covers k elements.
func (pr *Proc[T]) PutAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	p := pr.pool
	start := pr.env.Now()
	target := pr.eng.DirectTarget(len(vs))
	pr.env.Charge(&p.segRes[target], p.cfg.Costs.Cost(numa.AccessAdd, pr.id, target))
	for _, v := range vs {
		p.segs[target].Add(v)
	}
	p.emptyAbort = false // elements exist again: searches may proceed
	p.recordTrace(pr.env, target)
	pr.stats.RecordBatchAdd(pr.since(start), len(vs))
}

// GetN removes up to max elements in one operation: it drains the local
// segment under a single charged access, or — when the local segment is
// dry — searches like Get and surfaces the batch the steal-half
// transferred. It returns nil on an aborted operation.
func (pr *Proc[T]) GetN(max int) []T {
	if max <= 0 {
		return nil
	}
	p := pr.pool
	start := pr.env.Now()
	pr.env.Charge(&p.segRes[pr.id], p.cfg.Costs.Cost(numa.AccessRemove, pr.id, pr.id))
	if out := p.segs[pr.id].RemoveN(max); len(out) > 0 {
		p.recordTrace(pr.env, pr.id)
		pr.stats.RecordBatchLocalRemove(pr.since(start), len(out))
		pr.eng.ObserveLocal(len(out))
		return out
	}

	return pr.remove(start, max, nil, true)
}

// Get removes an element: locally when possible, otherwise via the
// configured search algorithm's steal protocol. ok=false reports an
// aborted operation (the paper's livelock rule or AbortAll).
func (pr *Proc[T]) Get() (T, bool) {
	p := pr.pool
	start := pr.env.Now()
	pr.env.Charge(&p.segRes[pr.id], p.cfg.Costs.Cost(numa.AccessRemove, pr.id, pr.id))
	if v, ok := p.segs[pr.id].Remove(); ok {
		p.recordTrace(pr.env, pr.id)
		pr.stats.RecordLocalRemove(pr.since(start))
		pr.eng.ObserveLocal(1)
		return v, true
	}

	var one [1]T
	out := pr.remove(start, 1, one[:0], false)
	return one[0], out != nil
}

// remove is the one slow path of Get and GetN: one engine search for up
// to max elements. A steal leaves its batch in the local segment with one
// element reserved; remove appends that element and up to max-1 more from
// the local segment to dst, which must be empty (nil makes a new slice).
// It returns nil on an abort; batch marks a GetN in the stats.
func (pr *Proc[T]) remove(start int64, max int, dst []T, batch bool) []T {
	p := pr.pool
	searchStart := pr.env.Now()
	res := pr.eng.Search(max)
	var out []T
	if res.Got > 0 {
		if dst == nil {
			dst = make([]T, 0, max)
		}
		out = append(dst, pr.sub.reserved)
		pr.sub.reserved = *new(T) // the substrate keeps no element reference
		if max > 1 {
			out = append(out, p.segs[pr.id].RemoveN(max-1)...)
			p.recordTrace(pr.env, pr.id)
		}
		pr.stats.RecordStealRemove(pr.since(start), pr.since(searchStart), res.Examined, res.Got, len(out), batch)
	} else {
		pr.stats.RecordAbort(pr.since(start))
	}
	pr.eng.Finish(res.Got)
	return out
}

// simSubstrate adapts a Proc to engine.Substrate / engine.TreeSubstrate:
// the typed reserve/transfer half of the steal protocol, charging virtual
// time per access. The fruitless-lap accounting, probe classification,
// the round counters and the livelock rule live in the engine.
type simSubstrate[T any] struct {
	proc     *Proc[T]
	reserved T
}

var _ engine.TreeSubstrate = (*simSubstrate[Token])(nil)

// Enter implements engine.Substrate: bump the shared lookers counter (a
// remote shared object on the Butterfly), charging the access.
func (w *simSubstrate[T]) Enter(int) {
	pr := w.proc
	p := pr.pool
	pr.env.Charge(&p.counter, p.cfg.Costs.Cost(numa.AccessShared, pr.id, -1))
	p.lookers++
}

// Exit implements engine.Substrate.
func (w *simSubstrate[T]) Exit() {
	pr := w.proc
	p := pr.pool
	pr.env.Charge(&p.counter, p.cfg.Costs.Cost(numa.AccessShared, pr.id, -1))
	p.lookers--
}

// Stopped implements engine.Substrate: an external AbortAll, or the
// latched all-searching observation (engine.Laps latches it so that every
// concurrent search aborts, not just the process that made the
// observation; the next add clears the latch).
func (w *simSubstrate[T]) Stopped() bool {
	p := w.proc.pool
	return p.drainAbort || p.emptyAbort || !p.members.Alive(w.proc.id)
}

// Probe implements engine.Substrate: probe (remote) segment s and move
// the StealAmount policy's share into the local segment, reserving one
// element.
func (w *simSubstrate[T]) Probe(s, want int) int {
	pr := w.proc
	p := pr.pool
	env := pr.env
	env.Charge(&p.segRes[s], p.cfg.Costs.Cost(numa.AccessProbe, pr.id, s))

	if s == pr.id {
		n := p.segs[s].Len()
		if n > 0 {
			w.reserved, _ = p.segs[s].Remove()
			p.recordTrace(env, s)
		}
		return n
	}
	n := p.segs[s].Len()
	if n == 0 {
		return 0
	}
	env.Charge(&p.segRes[s], p.cfg.Costs.Cost(numa.AccessSplit, pr.id, s))
	// The split charge is a scheduling point: another processor may have
	// drained the victim since the probe read n (TakeInto clamps to what
	// is actually there). A steal that arrives to an emptied victim is a
	// fruitless probe — it must not touch the local segment, or it would
	// reserve an unrelated element (a directed add that landed locally
	// mid-search) and lose it when a later steal overwrites the slot.
	moved := p.segs[s].TakeInto(&p.segs[pr.id], pr.steal.Amount(n, want))
	if moved == 0 {
		return 0
	}
	w.reserved, _ = p.segs[pr.id].Remove()
	p.recordTrace(env, s)
	p.recordTrace(env, pr.id)
	if pr.tr != nil {
		pr.tr.Record(trace.ReserveTransfer, int32(s), int32(moved))
	}
	return moved
}

// ChargeNode implements engine.TreeSubstrate, charging a (remote) node
// access on the node's resource.
func (w *simSubstrate[T]) ChargeNode(n int) {
	p := w.proc.pool
	w.proc.env.Charge(&p.nodeRes[n], p.cfg.Costs.Cost(numa.AccessNode, w.proc.id, -1))
}

// lapsState exposes the shared evidence engine.Laps consults: the
// all-searching observation over the participant count, and the latch
// that makes every concurrent search abort on it.
type lapsState[T any] struct{ p *Pool[T] }

var _ engine.LapsState = lapsState[Token]{}

// AllSearching implements engine.LapsState.
func (l lapsState[T]) AllSearching() bool { return l.p.lookers >= l.p.participants }

// LatchEmpty implements engine.LapsState.
func (l lapsState[T]) LatchEmpty() { l.p.emptyAbort = true }
