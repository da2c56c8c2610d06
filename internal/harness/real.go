package harness

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pools/internal/core"
	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/trace"
	"pools/internal/workload"
)

// RealRunConfig describes one wall-clock trial of the paper's protocol on
// the real concurrent pool (internal/core): one goroutine per segment,
// a shared operation budget, and optional busy-wait NUMA emulation.
//
// On a single-core host this measures protocol overheads rather than true
// parallel contention; the simulator (sim.Run) is the calibrated
// instrument for the paper's figures. RealRun exists so the library
// itself — the artifact a user adopts — is exercised under exactly the
// workloads the paper defines, and so multicore hosts can compare.
type RealRunConfig struct {
	Workload workload.Config
	Seed     uint64
	// Policies selects the pool's steal/search/placement/control policies
	// (see core.Options.Policies). Adaptive sets carry state: construct a
	// fresh Set per trial.
	Policies policy.Set
	Delay    numa.Delayer
	// Topology assigns hop distances to segments so the real pool can run
	// the clustered experiments: cross-cluster probes are counted in the
	// result stats, and an active Delay without its own topology inherits
	// this one (see core.Options.Topology).
	Topology numa.Topology
	// TraceBuf, when positive, attaches a flight recorder of that many
	// events per handle (core.Options.TraceBuf); the recorded timelines
	// come back in RealRunResult.Timelines.
	TraceBuf int
	// Churn, when enabled, kills one live handle at a time on the seeded
	// schedule (workload.Churn) and revives it after the configured
	// downtime. The schedule runs on the operation clock: KillEvery and
	// ReviveAfter count operations claimed from the shared budget, and the
	// worker whose claim reaches a kill or revive performs it before its
	// own operation. So the schedule fires at the same point in the work
	// on any machine and at any speed. A killed worker idles without
	// claiming budget until revived (its next operation re-registers the
	// handle), until the budget runs out, or until every other worker
	// has left: units its cut-short batch refunded after the others
	// exited then stay unspent (workload.Drive). A handle still down at
	// the end is revived after the workers finish. Not supported under
	// the OpenLoop model, whose arrival streams assume a fixed worker set.
	Churn workload.Churn
	// live, set only by StartLive, observes the run: it receives the pool
	// before any worker starts, and each worker's statistics every
	// publishEvery operations and once as the worker exits.
	live *Live
}

// publishEvery is the operation interval between the statistics
// snapshots a worker hands to RealRunConfig.live. Coarse enough to stay
// off the hot path, fine enough that a live dashboard never lags the run
// by more than a few hundred µs.
const publishEvery = 64

// RealRunResult carries the measurements of one wall-clock trial.
type RealRunResult struct {
	Stats     metrics.PoolStats
	Elapsed   time.Duration
	Remaining int
	// Sojourns are per-worker sojourn-time histograms (completion minus
	// scheduled arrival, wall-clock µs) under the OpenLoop model; nil for
	// closed-loop models.
	Sojourns []metrics.LatencyHist
	// Timelines are the per-handle flight-recorder snapshots (only when
	// RealRunConfig.TraceBuf), on the wall clock in µs since pool start.
	Timelines []trace.Timeline
	// Kills and Revives count the chaos driver's membership transitions
	// (only when RealRunConfig.Churn is enabled).
	Kills, Revives int
}

// RealRun executes one trial with real goroutines and returns its
// measurements.
func RealRun(cfg RealRunConfig) (RealRunResult, error) {
	wl := cfg.Workload
	if err := wl.ValidateChurn(cfg.Churn); err != nil {
		return RealRunResult{}, err
	}
	p, err := core.New[int](core.Options{
		Segments:     wl.Procs,
		Seed:         cfg.Seed,
		Policies:     cfg.Policies,
		Delay:        cfg.Delay,
		Topology:     cfg.Topology,
		CollectStats: true,
		TraceBuf:     cfg.TraceBuf,
	})
	if err != nil {
		return RealRunResult{}, err
	}
	if cfg.live != nil {
		cfg.live.setPool(p)
	}
	seed := make([]int, wl.InitialElements)
	p.SeedEvenly(seed)
	for i := 0; i < wl.Procs; i++ {
		p.Handle(i).Register()
	}

	budget := workload.NewBudget(wl.TotalOps)
	var claimer workload.Claimer = budget
	var churn *opChurn
	if cfg.Churn.Enabled() {
		churn = newOpChurn(p, cfg.Churn, wl.Procs, cfg.Seed, budget)
		claimer = churn
	}
	var sojourns []metrics.LatencyHist
	if wl.Model == workload.OpenLoop {
		sojourns = make([]metrics.LatencyHist, wl.Procs)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < wl.Procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := &realWorker{p: p, h: p.Handle(id), id: id, live: cfg.live, start: start}
			workload.Drive(wl, id, cfg.Seed, w, claimer, sojourns)
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var kills, revives int
	if churn != nil {
		kills, revives = churn.finish()
	}

	return RealRunResult{
		Stats:     p.Stats(),
		Elapsed:   elapsed,
		Remaining: p.Len(),
		Sojourns:  sojourns,
		Timelines: p.Timelines(),
		Kills:     kills,
		Revives:   revives,
	}, nil
}

// opChurn runs a churn schedule on RealRun's operation clock: the budget's
// used count. It is the workers' Claimer: each successful claim ticks
// the schedule, and the first claim to reach the next event's position
// performs it, so kills and revives land at fixed points in the work
// instead of at wall-clock times a fast run may never reach.
type opChurn struct {
	*workload.Budget
	p     *core.Pool[int]
	churn workload.Churn
	procs int
	next  atomic.Int64 // budget position of the next kill or revive; MaxInt64 once the schedule is done

	mu             sync.Mutex // serializes the events; taken only when a tick reaches next
	gen            *workload.ChurnGen
	down           int // the killed handle awaiting revive, -1 when none
	kills, revives int
}

func newOpChurn(p *core.Pool[int], c workload.Churn, procs int, seed uint64, b *workload.Budget) *opChurn {
	oc := &opChurn{Budget: b, p: p, churn: c, procs: procs, gen: c.Gen(seed), down: -1}
	oc.schedule(0)
	return oc
}

// TryClaimN claims from the budget and, when the claim took anything,
// advances the schedule to the budget's new count.
func (c *opChurn) TryClaimN(k int) int {
	n := c.Budget.TryClaimN(k)
	if n > 0 {
		c.tick(c.Used())
	}
	return n
}

// schedule draws the gap to the next kill, counted from used.
func (c *opChurn) schedule(used int64) {
	gap := c.gen.NextGap()
	if gap < 0 {
		c.next.Store(math.MaxInt64)
		return
	}
	c.next.Store(used + gap)
}

// tick advances the schedule to used, the budget's count after a
// claim. Short of the next event it costs one atomic load.
func (c *opChurn) tick(used int) {
	if int64(used) < c.next.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(used) < c.next.Load() {
		return // another worker performed this event
	}
	if c.down >= 0 {
		if c.p.Revive(c.down) {
			c.revives++
		}
		c.down = -1
		c.schedule(int64(used))
		return
	}
	t := c.gen.PickVictim(c.procs)
	if !c.p.Kill(t, c.churn.Drain) {
		c.schedule(int64(used)) // refused (last live member); retry after the next gap
		return
	}
	c.kills++
	c.down = t
	c.next.Store(int64(used) + c.churn.ReviveAfter)
}

// finish revives a handle the exhausted budget left down, once every
// worker has exited, and returns the kill and revive counts.
func (c *opChurn) finish() (kills, revives int) {
	if c.down >= 0 && c.p.Revive(c.down) {
		c.revives++
	}
	c.down = -1
	return c.kills, c.revives
}

// realWorker is one goroutine's workload.Worker on the wall clock. Turn
// is free (the budget's atomics are the shared access); After publishes
// to the live observer every publishEvery operations and yields, so the
// budget spreads across all workers even at GOMAXPROCS=1 (without the
// yield, one goroutine's cheap aborted removes can burn the whole budget
// before the producers run).
type realWorker struct {
	p     *core.Pool[int]
	h     *core.Handle[int]
	id    int
	live  *Live
	start time.Time
	ops   int
	batch []int
}

func (w *realWorker) Put()                { w.h.Put(0) }
func (w *realWorker) Get()                { w.h.Get() }
func (w *realWorker) GetN(n int) int      { return len(w.h.GetN(n)) }
func (w *realWorker) BatchSize(c int) int { return w.h.BatchSize(c) }
func (w *realWorker) Alive() bool         { return w.p.Alive(w.id) }
func (w *realWorker) Turn()               {}
func (w *realWorker) Now() int64          { return time.Since(w.start).Microseconds() }
func (w *realWorker) Idle()               { runtime.Gosched() }

func (w *realWorker) PutN(n int) {
	if n > len(w.batch) {
		w.batch = make([]int, n)
	}
	w.h.PutAll(w.batch[:n])
}

func (w *realWorker) WaitUntil(t int64) {
	for w.Now() < t {
		runtime.Gosched()
	}
}

func (w *realWorker) After() {
	if w.live != nil {
		if w.ops++; w.ops%publishEvery == 0 {
			w.live.publish(w.id, w.h.Stats())
		}
	}
	runtime.Gosched()
}

// Done withdraws the handle, so stragglers stuck searching can abort,
// and publishes the worker's final statistics.
func (w *realWorker) Done() {
	w.h.Close()
	if w.live != nil {
		w.live.publish(w.id, w.h.Stats())
	}
}
