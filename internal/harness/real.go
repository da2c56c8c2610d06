package harness

import (
	"fmt"
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
	// handle); a handle still down when the budget runs out is revived
	// after the workers finish. Not supported under the OpenLoop model,
	// whose arrival streams assume a fixed worker set.
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
	if err := wl.Validate(); err != nil {
		return RealRunResult{}, err
	}
	if err := cfg.Churn.Validate(); err != nil {
		return RealRunResult{}, err
	}
	churnOn := cfg.Churn.Enabled()
	if churnOn && wl.Model == workload.OpenLoop {
		return RealRunResult{}, fmt.Errorf("harness: churn is not supported under the OpenLoop model")
	}
	if churnOn && wl.Procs < 2 {
		return RealRunResult{}, fmt.Errorf("harness: churn needs Procs >= 2, got %d", wl.Procs)
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
	var churn *opChurn
	if churnOn {
		churn = newOpChurn(p, cfg.Churn, wl.Procs, cfg.Seed)
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
			h := p.Handle(id)
			ch := workload.NewChooser(wl, id, cfg.Seed)
			ticks := 0
			tick := func() {
				if cfg.live == nil {
					return
				}
				if ticks++; ticks%publishEvery == 0 {
					cfg.live.publish(id, h.Stats())
				}
			}
			defer func() {
				if cfg.live != nil {
					cfg.live.publish(id, h.Stats())
				}
			}()
			if wl.Model == workload.OpenLoop {
				// Open loop on the wall clock: claim the budget first (so
				// exhaustion never waits out one more arrival gap), spin to
				// the scheduled arrival, run the op, then busy-spin the
				// drawn service time. Sojourn is measured from the
				// scheduled arrival, so a backlogged worker accrues its
				// queueing delay.
				gen := wl.ArrivalsFor(id).Gen(id, cfg.Seed)
				var arrival int64
				for budget.TryClaim() {
					gap, svc := gen.Next()
					arrival += gap
					for time.Since(start).Microseconds() < arrival {
						runtime.Gosched()
					}
					if ch.Next() == metrics.OpAdd {
						h.Put(0)
					} else {
						h.Get()
					}
					if svc > 0 {
						until := arrival + svc
						if now := time.Since(start).Microseconds(); now > arrival {
							until = now + svc
						}
						for time.Since(start).Microseconds() < until {
							runtime.Gosched()
						}
					}
					sojourns[id].Record(time.Since(start).Microseconds() - arrival)
					tick()
				}
				h.Close()
				return
			}
			// A killed worker idles off the budget until revived (or the
			// budget runs out); its next operation re-registers the handle.
			downWait := func() bool {
				if !churnOn || p.Alive(id) {
					return false
				}
				runtime.Gosched()
				return !budget.Exhausted()
			}
			if wl.Model == workload.Burst {
				batch := make([]int, wl.BatchSize)
				for {
					if downWait() {
						continue
					}
					// An online controller (adaptive policy) may retune
					// the batch between operations, exactly as in the
					// simulator's burst loop.
					want := h.BatchSize(wl.BatchSize)
					if want > len(batch) {
						batch = make([]int, want)
					}
					take := budget.TryClaimN(want)
					if take == 0 {
						break
					}
					churn.tick(budget.Used())
					if ch.NextBatch(take) == metrics.OpAdd {
						h.PutAll(batch[:take])
					} else {
						consumed := len(h.GetN(take))
						if consumed == 0 {
							consumed = 1 // an abort costs one unit
						}
						budget.Refund(take - consumed)
					}
					tick()
					runtime.Gosched()
				}
				h.Close()
				return
			}
			for {
				if downWait() {
					continue
				}
				if !budget.TryClaim() {
					break
				}
				churn.tick(budget.Used())
				if ch.Next() == metrics.OpAdd {
					h.Put(0)
				} else {
					h.Get()
				}
				// Yield between operations so the shared budget is
				// spread across all workers even on GOMAXPROCS=1 (the
				// paper's processes each ran on their own processor;
				// without this, one goroutine's cheap aborted removes
				// can burn the whole budget before producers run).
				tick()
				runtime.Gosched()
			}
			// Withdraw so stragglers stuck searching can abort.
			h.Close()
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
// used count. Workers call tick after each successful claim; the first
// claim to reach the next event's position performs it, so kills and
// revives land at fixed points in the work instead of at wall-clock times
// a fast run may never reach.
type opChurn struct {
	p     *core.Pool[int]
	churn workload.Churn
	procs int
	next  atomic.Int64 // budget position of the next kill or revive; MaxInt64 once the schedule is done

	mu             sync.Mutex // serializes the events; taken only when a tick reaches next
	gen            *workload.ChurnGen
	down           int // the killed handle awaiting revive, -1 when none
	kills, revives int
}

func newOpChurn(p *core.Pool[int], c workload.Churn, procs int, seed uint64) *opChurn {
	oc := &opChurn{p: p, churn: c, procs: procs, gen: c.Gen(seed), down: -1}
	oc.schedule(0)
	return oc
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

// tick advances the schedule to used, the budget's count after the
// caller's claim. It is a no-op on a nil receiver (churn disabled) and,
// short of the next event, costs one atomic load.
func (c *opChurn) tick(used int) {
	if c == nil || int64(used) < c.next.Load() {
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
