// Package workload generates the operation patterns of Section 3.3:
//
//   - the random operations model, where every process draws each
//     operation from the same add/remove job mix (swept 0%..100% adds in
//     10% steps; mixes below 50% adds are "sparse", at or above 50%
//     "sufficient");
//   - the producer/consumer model, where a fixed subset of processes only
//     add and the rest only remove, with the producers arranged either
//     contiguously (the paper's default, which causes consumer "bunching")
//     or balanced (spread evenly, Section 4.2's fix);
//   - the dynamic-roles extension (Section 3.3 notes that "in many real
//     systems, the identity of the processes acting as producers may
//     change dynamically over time");
//   - the burst model, a producer/consumer variant beyond the paper in
//     which processes move elements in batches of Config.BatchSize via the
//     pools' batch operations (PutAll/GetN), modelling the bursty arrivals
//     of real producer/consumer systems;
//   - the open-loop model (also beyond the paper), where operations arrive
//     on an external clock (Poisson or bursty-exponential, with
//     zipf-distributed service times) and queue behind busy processes, with
//     an optional multi-tenant partition skewing arrival rates — the
//     heavy-traffic regime judged by sojourn-time tails instead of mean
//     operation time. See Arrivals and docs/WORKLOADS.md.
//
// The experiment protocol constants (5000 operations against a pool seeded
// with 320 elements on 16 processors, averaged over 10 trials) also live
// here so the harness, simulator, and benchmarks agree.
package workload

import (
	"fmt"
	"sync/atomic"

	"pools/internal/metrics"
	"pools/internal/rng"
)

// Paper protocol constants (Section 3.1 and 3.4).
const (
	// PaperProcs is the pool size: "We have experimented with 16-processor
	// pools ... with one segment and one process on each processor."
	PaperProcs = 16
	// PaperTotalOps is the shared operation budget: "5000 operations were
	// performed ...".
	PaperTotalOps = 5000
	// PaperInitialElements seeds the pool: "... on a pool initialized with
	// only 320 elements."
	PaperInitialElements = 320
	// PaperTrials is the number of averaged repetitions: "For each
	// workload, ten trials were performed."
	PaperTrials = 10
)

// Model selects the operation pattern.
type Model int

// The two workload models of Section 3.3, plus the batched
// producer/consumer extension and the open-loop arrivals extension.
const (
	RandomOps Model = iota + 1
	ProducerConsumer
	Burst
	// OpenLoop replaces the closed loop (next op starts when the previous
	// finishes) with an external arrival clock (Config.Arrivals): each
	// process draws inter-arrival gaps and per-arrival service times, ops
	// queue behind a busy process, and the quantity measured is the tail
	// of sojourn time. The op mix is AddFraction, like RandomOps.
	OpenLoop
)

// String names the model.
func (m Model) String() string {
	switch m {
	case RandomOps:
		return "random-ops"
	case ProducerConsumer:
		return "producer-consumer"
	case Burst:
		return "burst"
	case OpenLoop:
		return "open-loop"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Arrangement selects how producer roles map onto processors.
type Arrangement int

// Producer arrangements (Section 4.2).
const (
	// Contiguous assigns producers to processors 0..k-1, the arrangement
	// that causes consumer bunching.
	Contiguous Arrangement = iota + 1
	// Balanced spreads the k producers evenly around the ring
	// (processors floor(i*P/k)), the fix evaluated in Figures 4 and 6.
	Balanced
)

// String names the arrangement.
func (a Arrangement) String() string {
	switch a {
	case Contiguous:
		return "contiguous"
	case Balanced:
		return "balanced"
	default:
		return fmt.Sprintf("Arrangement(%d)", int(a))
	}
}

// Config describes one workload.
type Config struct {
	Procs int   // number of processes (= segments)
	Model Model // operation pattern

	// AddFraction is the job mix for RandomOps and OpenLoop: the
	// probability that an operation is an add.
	AddFraction float64

	// Arrivals drives the OpenLoop model: the per-process arrival rate,
	// burstiness, and service-time distribution.
	Arrivals Arrivals

	// Tenants partitions the processors of an OpenLoop run into that many
	// contiguous blocks, each a tenant sharing the one pool; 0 or 1 means
	// a single tenant. TenantSkew is the zipf exponent skewing arrival
	// rates across tenants (0 = uniform; see TenantWeight). Use
	// TenantMapping to derive the matching segment partition for
	// policy.TenantMap.
	Tenants    int
	TenantSkew float64

	// Producers and Arrangement configure ProducerConsumer.
	Producers   int
	Arrangement Arrangement

	// RoleFlipEvery, when positive under ProducerConsumer or Burst,
	// rotates the producer set by one position after every RoleFlipEvery
	// elements a process moves — the dynamic-roles extension. Under the
	// single-element model an operation moves one element; under Burst a
	// batched operation advances the per-process count by BatchSize, so
	// the cadence stays element-denominated (and meaningful) at every
	// batch size.
	RoleFlipEvery int

	// BatchSize is the number of elements each Burst operation moves
	// (PutAll for producers, GetN for consumers). Burst only; must be
	// >= 1.
	BatchSize int

	TotalOps        int // shared operation budget (PaperTotalOps)
	InitialElements int // pool seed (PaperInitialElements)
}

// Paper returns the paper's base configuration for the given model.
func Paper(model Model) Config {
	return Config{
		Procs:           PaperProcs,
		Model:           model,
		Arrangement:     Contiguous,
		TotalOps:        PaperTotalOps,
		InitialElements: PaperInitialElements,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("workload: Procs = %d, need >= 1", c.Procs)
	}
	switch c.Model {
	case RandomOps:
		if c.AddFraction < 0 || c.AddFraction > 1 {
			return fmt.Errorf("workload: AddFraction = %v, need [0,1]", c.AddFraction)
		}
	case OpenLoop:
		if c.AddFraction < 0 || c.AddFraction > 1 {
			return fmt.Errorf("workload: AddFraction = %v, need [0,1]", c.AddFraction)
		}
		if err := c.Arrivals.Validate(); err != nil {
			return err
		}
		if c.Tenants < 0 || c.Tenants > c.Procs {
			return fmt.Errorf("workload: Tenants = %d, need [0,%d]", c.Tenants, c.Procs)
		}
		if c.TenantSkew < 0 {
			return fmt.Errorf("workload: TenantSkew = %v, need >= 0", c.TenantSkew)
		}
	case ProducerConsumer, Burst:
		if c.Producers < 0 || c.Producers > c.Procs {
			return fmt.Errorf("workload: Producers = %d, need [0,%d]", c.Producers, c.Procs)
		}
		switch c.Arrangement {
		case Contiguous, Balanced:
		default:
			return fmt.Errorf("workload: unknown arrangement %d", int(c.Arrangement))
		}
		if c.Model == Burst && c.BatchSize < 1 {
			return fmt.Errorf("workload: BatchSize = %d, need >= 1 for the burst model", c.BatchSize)
		}
	default:
		return fmt.Errorf("workload: unknown model %d", int(c.Model))
	}
	if c.TotalOps < 0 || c.InitialElements < 0 {
		return fmt.Errorf("workload: negative budget (ops=%d, seed=%d)", c.TotalOps, c.InitialElements)
	}
	return nil
}

// ValidateChurn reports errors in the workload and in a churn schedule
// layered over it. Churn needs at least two processes (the last live
// member cannot be killed) and a closed-loop model: the OpenLoop arrival
// streams assume a fixed process set, so a killed process's arrivals
// would have nowhere to go.
func (c Config) ValidateChurn(ch Churn) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if err := ch.Validate(); err != nil || !ch.Enabled() {
		return err
	}
	if c.Model == OpenLoop {
		return fmt.Errorf("workload: churn is not supported under the OpenLoop model")
	}
	if c.Procs < 2 {
		return fmt.Errorf("workload: churn needs Procs >= 2, got %d", c.Procs)
	}
	return nil
}

// ProducerPositions returns the processor indices holding producer roles.
func ProducerPositions(procs, producers int, arr Arrangement) []int {
	pos := make([]int, 0, producers)
	switch arr {
	case Balanced:
		for i := 0; i < producers; i++ {
			pos = append(pos, i*procs/producers)
		}
	default: // Contiguous
		for i := 0; i < producers; i++ {
			pos = append(pos, i)
		}
	}
	return pos
}

// IsProducer reports whether processor proc holds a producer role under
// the configuration (ProducerConsumer and Burst models only).
func (c Config) IsProducer(proc int) bool {
	for _, p := range ProducerPositions(c.Procs, c.Producers, c.Arrangement) {
		if p == proc {
			return true
		}
	}
	return false
}

// Chooser draws the next operation for one process. It is not safe for
// concurrent use; each process owns one.
type Chooser struct {
	cfg      Config
	proc     int
	rng      *rng.Xoshiro256
	producer bool
	ops      int // elements this process has moved (the role-flip clock)
}

// NewChooser returns the operation chooser for processor proc, seeded
// deterministically from the trial seed.
func NewChooser(cfg Config, proc int, trialSeed uint64) *Chooser {
	return &Chooser{
		cfg:      cfg,
		proc:     proc,
		rng:      rng.NewXoshiro256(rng.SubSeed(trialSeed, proc)),
		producer: (cfg.Model == ProducerConsumer || cfg.Model == Burst) && cfg.IsProducer(proc),
	}
}

// Next returns the next operation kind for a single-element operation,
// advancing the role-flip clock by one.
func (ch *Chooser) Next() metrics.OpKind { return ch.next(1) }

// next advances the role-flip clock by step elements (Drive passes a
// burst batch's claimed size) and draws the operation kind.
func (ch *Chooser) next(step int) metrics.OpKind {
	ch.ops += step
	switch ch.cfg.Model {
	case ProducerConsumer, Burst:
		producer := ch.producer
		if ch.cfg.RoleFlipEvery > 0 {
			// Rotate the producer set by one position per flip interval.
			rot := ch.ops / ch.cfg.RoleFlipEvery
			shifted := (ch.proc - rot) % ch.cfg.Procs
			if shifted < 0 {
				shifted += ch.cfg.Procs
			}
			producer = ch.cfg.IsProducer(shifted)
		}
		if producer {
			return metrics.OpAdd
		}
		return metrics.OpRemove
	default: // RandomOps
		if ch.rng.Bool(ch.cfg.AddFraction) {
			return metrics.OpAdd
		}
		return metrics.OpRemove
	}
}

// Budget is the shared operation counter implementing the paper's stopping
// rule: "the processes performed operations until the combined total
// number of operations reached the desired amount." It is safe for
// concurrent use.
type Budget struct {
	limit int64
	used  atomic.Int64
	left  atomic.Int64 // workers that have stopped claiming
}

// NewBudget returns a budget of n operations.
func NewBudget(n int) *Budget {
	b := &Budget{limit: int64(n)}
	return b
}

// TryClaimN consumes up to k operations from the budget, returning how
// many were claimed (0 when exhausted). A burst worker claims one budget
// unit per element it intends to move, so batched and single-element runs
// spend the same total budget.
func (b *Budget) TryClaimN(k int) int {
	if k <= 0 {
		return 0
	}
	for {
		cur := b.used.Load()
		rem := b.limit - cur
		if rem <= 0 {
			return 0
		}
		take := int64(k)
		if take > rem {
			take = rem
		}
		if b.used.CompareAndSwap(cur, cur+take) {
			return int(take)
		}
	}
}

// Refund returns n unused operations to the budget: a burst worker claims
// BatchSize units up front and refunds the ones its GetN could not move.
// A refund may briefly revive a budget another worker already observed as
// exhausted; workers that exited on that observation simply leave the
// refunded units unspent. So does a killed worker that made the refund:
// Drive stops it once every other worker has left, since no live worker
// remains to claim the units (or to tick the revive it waits for).
func (b *Budget) Refund(n int) {
	if n > 0 {
		b.used.Add(int64(-n))
	}
}

// Leave records that one worker has stopped claiming; Drive calls it as
// the worker returns.
func (b *Budget) Leave() { b.left.Add(1) }

// Left returns the number of workers that have called Leave.
func (b *Budget) Left() int { return int(b.left.Load()) }

// Used returns the number of operations claimed so far.
func (b *Budget) Used() int { return int(b.used.Load()) }

// Exhausted reports whether no operations remain.
func (b *Budget) Exhausted() bool { return b.used.Load() >= b.limit }

// MixSweep returns the job-mix values of the paper's random-ops sweep:
// 0%, 10%, ..., 100% adds.
func MixSweep() []float64 {
	out := make([]float64, 0, 11)
	for i := 0; i <= 10; i++ {
		out = append(out, float64(i)/10)
	}
	return out
}

// ProducerSweep returns the producer counts of the paper's
// producer/consumer sweep: 0..procs.
func ProducerSweep(procs int) []int {
	out := make([]int, 0, procs+1)
	for i := 0; i <= procs; i++ {
		out = append(out, i)
	}
	return out
}
