package policy

import "sync/atomic"

// Adaptive tuning constants. The window is the number of removes between
// parameter adjustments; fractions are fixed-point with fracUnit = 1.0.
// The window must be short enough to fire several times within one
// paper-protocol run (5000 element-moves across 16 processors is only a
// few hundred remove operations at large batch sizes — a 64-op window
// would never complete and the controller would never adapt).
const (
	adaptWindow = 16            // removes per adjustment window
	fracUnit    = 1024          // fixed-point scale for the steal fraction
	fracMin     = fracUnit / 16 // never steal less than 1/16 of a victim
	fracMax     = fracUnit      // never steal more than everything
	fracStart   = fracUnit / 2  // start at the paper's steal-half
	maxShift    = 2             // batch recommendation caps at 4x configured
	batchCap    = 64            // and never exceeds the largest swept batch
)

// Adaptive is a Controller, and the pool-wide Control that shares it with
// every handle: it steals an online-tuned fraction of the victim (never
// less than the requester's appetite) and adjusts that fraction — plus a
// recommended batch size — from the per-remove feedback stream.
//
// Control law, evaluated every adaptWindow removes:
//
//   - steal rate above 25%: local reserves drain between removes, so the
//     fraction rises (×3/2, capped at 1.0) to haul bigger reserves;
//   - steal rate below 5%: hauls outlast the window, so the fraction
//     decays (×2/3, floored at 1/16) to leave victims balanced;
//   - searches averaging more than two probes per steal: each remote trip
//     is expensive, so the recommended batch doubles (up to 4× the
//     configured size, never above 64) to amortize it;
//   - any abort in the window: the pool is draining, so the batch
//     recommendation steps back down.
//
// All state is atomic: many real-pool handles may Observe concurrently.
// Under the sequential simulator the observation order — and therefore
// the parameter trajectory — is deterministic for a fixed seed.
//
// An Adaptive must not be shared between independent runs: construct a
// fresh one per trial (policy.Named does).
//
// The layout is the per-handle controller half of the false-sharing
// audit: the read-mostly control outputs (frac, consulted on every steal
// sizing; shift, on every batch recommendation) sit a cache line away
// from the write-hot window counters that every Observe hammers, and the
// struct tiles to a cache-line multiple so per-handle instances
// (policy.PerHandle allocates one per handle, in a size class that would
// otherwise pack two to a line) never share a line. Verified by
// TestAdaptiveLayout.
type Adaptive struct {
	frac  atomic.Int64 // steal fraction, fixed-point (fracUnit = 1.0)
	shift atomic.Int64 // batch multiplier exponent, 0..maxShift
	_     [48]byte

	// Current-window counters, swapped out at each boundary.
	ops      atomic.Int64
	steals   atomic.Int64
	aborts   atomic.Int64
	examined atomic.Int64
	_        [32]byte
}

var (
	_ Controller = (*Adaptive)(nil)
	_ Control    = (*Adaptive)(nil)
)

// NewAdaptive returns an adaptive policy starting at the paper's
// steal-half fraction with no batch scaling.
func NewAdaptive() *Adaptive {
	a := &Adaptive{}
	a.frac.Store(fracStart)
	return a
}

// Amount implements StealAmount: ceil(n * fraction), floored at the
// requester's appetite (a steal always satisfies the GetN that triggered
// it when the victim can) and clamped to [1, n].
func (a *Adaptive) Amount(n, want int) int {
	f := a.frac.Load()
	k := (int64(n)*f + fracUnit - 1) / fracUnit
	if int64(want) > k {
		k = int64(want)
	}
	return clamp(int(k), n)
}

// Observe implements Controller.
func (a *Adaptive) Observe(fb Feedback) {
	if fb.Stole {
		a.steals.Add(1)
	}
	if fb.Aborted {
		a.aborts.Add(1)
	}
	if fb.Examined > 0 {
		a.examined.Add(int64(fb.Examined))
	}
	if a.ops.Add(1)%adaptWindow != 0 {
		return
	}
	a.adjust(a.steals.Swap(0), a.aborts.Swap(0), a.examined.Swap(0))
}

// adjust applies the control law at a window boundary.
func (a *Adaptive) adjust(steals, aborts, examined int64) {
	f := a.frac.Load()
	switch rate := float64(steals) / adaptWindow; {
	case rate > 0.25:
		f = f * 3 / 2
	case rate < 0.05:
		f = f * 2 / 3
	}
	if f < fracMin {
		f = fracMin
	}
	if f > fracMax {
		f = fracMax
	}
	a.frac.Store(f)

	sh := a.shift.Load()
	if aborts > 0 {
		if sh > 0 {
			sh--
		}
	} else if steals > 0 && examined > 2*steals && sh < maxShift {
		sh++
	}
	a.shift.Store(sh)
}

// BatchSize implements Controller: the configured size scaled by the
// tuned multiplier, capped at batchCap (configurations already above the
// cap are returned unchanged).
func (a *Adaptive) BatchSize(current int) int {
	if current < 1 {
		current = 1
	}
	b := current << uint(a.shift.Load())
	if b > batchCap {
		b = batchCap
	}
	if b < current {
		b = current
	}
	return b
}

// StealFraction implements Controller.
func (a *Adaptive) StealFraction() float64 {
	return float64(a.frac.Load()) / fracUnit
}

// EscalationThreshold implements Controller: the structural base shrinks
// by the same power-of-two shift that grows the batch recommendation. The
// shift rises when searches average many probes per steal — exactly the
// signal that the cheap rings are dry and persistence there is wasted —
// and falls back when aborts show the whole pool draining (crossing
// clusters cannot help an empty machine). Never below one probe.
func (a *Adaptive) EscalationThreshold(base int) int {
	return max(base>>uint(a.shift.Load()), 1)
}

// Spawn implements Control: an Adaptive is pool-wide, so every handle
// consults it.
func (a *Adaptive) Spawn(int) Controller { return a }

// Name implements StealAmount and Control.
func (a *Adaptive) Name() string { return "adaptive" }
