package sim

import (
	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/trace"
	"pools/internal/workload"
)

// RunConfig describes one simulated trial of the paper's protocol: P
// processors issuing a continuous stream of operations against a seeded
// pool until the shared operation budget is exhausted (Section 3.4).
type RunConfig struct {
	Workload workload.Config
	Costs    numa.CostModel
	Seed     uint64
	// Policies selects the pool's steal/search/control policies for this
	// trial. Adaptive sets carry state: construct a fresh Set per trial
	// (policy.Named does).
	Policies policy.Set
	Trace    bool
	// ControlTrace enables per-processor controller-trajectory traces
	// (steal fraction and recommended batch size sampled after every
	// operation); meaningful only for sets with a Controller.
	ControlTrace bool
	// EventBuf, when positive, attaches a flight recorder of that many
	// events to every processor (PoolConfig.EventBuf); the recorded
	// timelines come back in RunResult.Events, deterministic for a seed.
	EventBuf int
	// Churn, when enabled, layers a seeded kill/revive schedule over the
	// run: an extra driver process ticks on the virtual clock, kills one
	// live processor at a time (workload.Churn), revives it after the
	// configured downtime, and samples cumulative completed operations
	// into RunResult.OpsTrace so throughput dip and recovery are
	// measurable. Killed processors idle (consuming virtual time but no
	// budget) until revived, until the budget is spent, or until every
	// other processor has left (workload.Drive). Not supported under the
	// OpenLoop model, whose arrival streams assume a fixed processor set.
	// A disabled schedule leaves the run byte-identical to a config
	// without it.
	Churn workload.Churn
}

// ChurnEvent is one membership transition the chaos driver performed.
type ChurnEvent struct {
	// Time is the virtual time of the transition (µs).
	Time int64
	// Proc is the processor killed or revived.
	Proc int
	// Revive distinguishes the two transitions.
	Revive bool
	// Drain records the kill mode (meaningless on revives).
	Drain bool
}

// ControllerTrace is one processor's controller trajectory over virtual
// time: the steal fraction (in permil, 500 = the paper's steal-half), the
// recommended batch size, and the processor's cumulative cross-cluster
// probe fraction (permil; 0 without a hop topology), sampled after every
// operation the processor completes. Under a per-handle policy set each
// processor traces its own controller; under a pool-wide set all
// processors trace the shared one — the cross-probe fraction is always
// the processor's own.
type ControllerTrace struct {
	FracPermil  metrics.Trace
	Batch       metrics.Trace
	CrossPermil metrics.Trace
}

// RunResult carries everything the paper measures from one trial.
type RunResult struct {
	// Stats aggregates all processors' operation statistics.
	Stats metrics.PoolStats
	// PerProc holds each processor's own statistics.
	PerProc []metrics.PoolStats
	// Makespan is the final virtual time (µs).
	Makespan int64
	// Traces are per-segment size traces (only when RunConfig.Trace).
	Traces []metrics.Trace
	// Controls are per-processor controller trajectories (only when
	// RunConfig.ControlTrace and the policy set has a controller).
	Controls []ControllerTrace
	// SegmentWaited is the queueing delay suffered at each segment, the
	// interference measure behind the bunching analysis.
	SegmentWaited []int64
	// Sojourns are per-processor sojourn-time histograms (completion minus
	// arrival, µs) under the OpenLoop model; nil for closed-loop models.
	// Aggregate across processors (or a tenant's processors) with
	// LatencyHist.Merge before reading percentiles.
	Sojourns []metrics.LatencyHist
	// Remaining is the number of elements left in the pool at the end.
	Remaining int
	// Events are the per-processor flight-recorder timelines (only when
	// RunConfig.EventBuf), on the virtual clock.
	Events []trace.Timeline
	// OpsTrace is cumulative completed operations sampled on the virtual
	// clock by the chaos driver (only when RunConfig.Churn is enabled).
	// Windowed differences give the throughput curve around each kill.
	OpsTrace metrics.Trace
	// Churn lists the membership transitions the chaos driver performed,
	// in virtual-time order (only when RunConfig.Churn is enabled).
	Churn []ChurnEvent
}

// Chaos-driver cadence on the virtual clock: how often the driver
// samples cumulative ops (and checks its kill/revive schedule), and how
// long a killed processor idles between alive checks. Coarse enough not
// to distort the run, fine enough to resolve a downtime window.
const (
	churnSampleEvery = 100 // µs between driver ticks
	churnIdleTick    = 50  // µs a killed processor idles per alive check
)

// Run executes one trial and returns its measurements. It is deterministic
// given RunConfig (including Seed).
func Run(cfg RunConfig) RunResult {
	wl := cfg.Workload
	if err := wl.ValidateChurn(cfg.Churn); err != nil {
		panic(err) // programmer error: harness configs are static
	}
	churn := cfg.Churn
	churnOn := churn.Enabled()
	searchLaps := 0
	if wl.Model == workload.OpenLoop {
		// Bounded search instead of the all-searching livelock rule: under
		// external arrivals the idle processes never enter a search, so the
		// all-searching observation would pin a searcher on a drained pool
		// until the next add happens to arrive. See PoolConfig.SearchLaps.
		searchLaps = 2
	}
	pool := NewPool[Token](PoolConfig{
		Procs:      wl.Procs,
		Costs:      cfg.Costs,
		Seed:       cfg.Seed,
		Policies:   cfg.Policies,
		Trace:      cfg.Trace,
		SearchLaps: searchLaps,
		EventBuf:   cfg.EventBuf,
	})
	pool.Seed(wl.InitialElements, func(int) Token { return Token{} })

	// The chaos driver, when churn is on, is one extra processor with the
	// highest index: at equal clocks RunProcs resumes lower indices
	// first, so every worker binds its Proc before the driver's first
	// tick can kill one.
	nprocs := wl.Procs
	if churnOn {
		nprocs++
	}
	bodies := make([]func(*Env), nprocs)
	// The shared operation counter is a real shared-memory location in the
	// paper's driver ("the processes performed operations until the
	// combined total number of operations reached the desired amount"):
	// claiming an operation charges a remote shared access.
	budget := workload.NewBudget(wl.TotalOps)
	var budgetRes Resource
	procs := make([]*Proc[Token], wl.Procs)
	var controls []ControllerTrace
	if cfg.ControlTrace {
		controls = make([]ControllerTrace, wl.Procs)
	}
	var sojourns []metrics.LatencyHist
	if wl.Model == workload.OpenLoop {
		sojourns = make([]metrics.LatencyHist, wl.Procs)
	}
	for id := 0; id < wl.Procs; id++ {
		bodies[id] = func(env *Env) {
			pr := pool.Proc(env)
			procs[id] = pr
			w := &simWorker{env: env, pr: pr, res: &budgetRes, cost: cfg.Costs.Cost(numa.AccessShared, id, -1), batch: wl.BatchSize}
			if controls != nil {
				w.control = &controls[id]
			}
			workload.Drive(wl, id, cfg.Seed, w, budget, sojourns)
		}
	}
	var opsTrace metrics.Trace
	var churnEvents []ChurnEvent
	if churnOn {
		bodies[wl.Procs] = func(env *Env) {
			gen := churn.Gen(cfg.Seed)
			victim := -1
			var nextRevive int64
			nextKill := gen.NextGap() // schedule the first kill from t=0
			for {
				env.Compute(churnSampleEvery)
				if budget.Exhausted() || budget.Left() == wl.Procs {
					return
				}
				ops := int64(0)
				for _, pr := range procs {
					if pr != nil {
						ops += pr.Stats().Ops()
					}
				}
				opsTrace.Record(env.Now(), ops)
				switch {
				case victim < 0 && nextKill >= 0 && env.Now() >= nextKill:
					t := gen.PickVictim(wl.Procs)
					if !pool.Kill(env, t, churn.Drain) {
						break // refused (last live member): retry next tick
					}
					victim = t
					churnEvents = append(churnEvents, ChurnEvent{Time: env.Now(), Proc: t, Drain: churn.Drain})
					nextRevive = env.Now() + churn.ReviveAfter
				case victim >= 0 && env.Now() >= nextRevive:
					pool.Revive(victim)
					churnEvents = append(churnEvents, ChurnEvent{Time: env.Now(), Proc: victim, Revive: true})
					victim = -1
					if gap := gen.NextGap(); gap >= 0 {
						nextKill = env.Now() + gap
					} else {
						nextKill = -1 // schedule exhausted (MaxKills)
					}
				}
			}
		}
	}
	makespan := RunProcs(bodies...)

	res := RunResult{
		Makespan:      makespan,
		PerProc:       make([]metrics.PoolStats, wl.Procs),
		SegmentWaited: make([]int64, wl.Procs),
		Traces:        pool.Traces(),
		Controls:      controls,
		Remaining:     pool.Len(),
		Sojourns:      sojourns,
		Events:        pool.Timelines(),
		OpsTrace:      opsTrace,
		Churn:         churnEvents,
	}
	for id, pr := range procs {
		res.PerProc[id] = *pr.Stats()
		res.Stats.Merge(pr.Stats())
		res.SegmentWaited[id] = pool.SegmentWaited(id)
	}
	return res
}

// simWorker is one processor's workload.Worker on the virtual clock.
// Turn charges the shared budget's resource, Done releases any
// processors stuck searching, and After samples the controller
// trajectory when RunConfig.ControlTrace asks for it.
type simWorker struct {
	env     *Env
	pr      *Proc[Token]
	res     *Resource // the shared budget's counter
	cost    int64
	batch   int // the configured batch size, for ControlSample
	control *ControllerTrace
}

func (w *simWorker) Put()                { w.pr.Put(Token{}) }
func (w *simWorker) Get()                { w.pr.Get() }
func (w *simWorker) PutN(n int)          { w.pr.PutAll(make([]Token, n)) }
func (w *simWorker) GetN(n int) int      { return len(w.pr.GetN(n)) }
func (w *simWorker) BatchSize(c int) int { return w.pr.BatchSize(c) }
func (w *simWorker) Alive() bool         { return w.pr.pool.Alive(w.env.id) }
func (w *simWorker) Turn()               { w.env.Charge(w.res, w.cost) }
func (w *simWorker) Done()               { w.pr.pool.AbortAll() }
func (w *simWorker) Now() int64          { return w.env.Now() }
func (w *simWorker) Idle()               { w.env.Compute(churnIdleTick) }
func (w *simWorker) WaitUntil(t int64) {
	if wait := t - w.env.Now(); wait > 0 {
		w.env.Compute(wait)
	}
}

func (w *simWorker) After() {
	if w.control == nil {
		return
	}
	if frac, batch, ok := w.pr.ControlSample(w.batch); ok {
		now := w.env.Now()
		w.control.FracPermil.Record(now, frac)
		w.control.Batch.Record(now, batch)
		w.control.CrossPermil.Record(now, int64(w.pr.Stats().CrossProbeFraction()*1000+0.5))
	}
}
