package policy

import (
	"math"
	"sync"
)

// PerHandle is the per-handle adaptive policy: a Controller/StealAmount
// pair whose Spawn hands every pool handle its own independent Adaptive
// instance. The paper's processes are heterogeneous — its
// producer/consumer workloads (Section 3.3) give half the processes a
// steal rate of zero and the other half a steal rate near one — and a
// single pool-wide controller averages those opposing signals into a
// fraction that suits neither. Under PerHandle the two converge to
// different steal fractions instead of fighting over one shared window.
//
// The PerHandle value itself implements Controller and StealAmount as the
// aggregate view: StealFraction reports the mean across spawned handles
// (for tables), Amount applies that mean (callers with a handle context —
// every in-repo substrate — use the spawned instance instead, via
// Set.ForHandle), and Observe discards feedback, which only flows through
// the spawned per-handle instances.
//
// A PerHandle must not be shared between independent runs: construct a
// fresh one per trial (Named does).
type PerHandle struct {
	mu   sync.Mutex
	subs map[int]*Adaptive
}

var (
	_ Controller  = (*PerHandle)(nil)
	_ StealAmount = (*PerHandle)(nil)
)

// NewPerHandle returns a per-handle adaptive policy with no spawned
// controllers yet; each handle's instance starts at the paper's
// steal-half fraction, exactly like NewAdaptive.
func NewPerHandle() *PerHandle {
	return &PerHandle{subs: map[int]*Adaptive{}}
}

// Spawn implements Controller: the handle's own Adaptive, created on first
// request and remembered so trajectories can be read back per handle.
func (p *PerHandle) Spawn(handle int) Controller {
	p.mu.Lock()
	defer p.mu.Unlock()
	a := p.subs[handle]
	if a == nil {
		a = NewAdaptive()
		p.subs[handle] = a
	}
	return a
}

// Handle returns the spawned controller for a handle, or nil if that
// handle never spawned one.
func (p *PerHandle) Handle(handle int) Controller {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a := p.subs[handle]; a != nil {
		return a
	}
	return nil
}

// meanFraction averages the spawned fractions (fracStart when none).
func (p *PerHandle) meanFraction() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.subs) == 0 {
		return float64(fracStart) / fracUnit
	}
	sum := 0.0
	for _, a := range p.subs {
		sum += a.StealFraction()
	}
	return sum / float64(len(p.subs))
}

// Observe implements Controller on the aggregate: it discards feedback.
// Per-handle state is fed only through the spawned instances; a substrate
// wired with Set.ForHandle never calls this.
func (p *PerHandle) Observe(Feedback) {}

// BatchSize implements Controller on the aggregate: no pool-wide batch
// recommendation (handles recommend individually via their spawned
// instances).
func (p *PerHandle) BatchSize(current int) int {
	if current < 1 {
		return 1
	}
	return current
}

// StealFraction implements Controller on the aggregate: the mean fraction
// across spawned handles, for tables and observability.
func (p *PerHandle) StealFraction() float64 { return p.meanFraction() }

// EscalationThreshold implements Controller on the aggregate: the
// structural base, untuned. Handles consult their spawned Adaptive
// instead.
func (p *PerHandle) EscalationThreshold(base int) int { return max(base, 1) }

// Amount implements StealAmount on the aggregate, applying the mean
// fraction with Adaptive's law (floored at the requester's appetite).
// Handle-level steals use the spawned instance's Amount instead.
func (p *PerHandle) Amount(n, want int) int {
	k := int(math.Ceil(p.meanFraction() * float64(n)))
	if want > k {
		k = want
	}
	return clamp(k, n)
}

// Name implements Controller and StealAmount.
func (p *PerHandle) Name() string { return "per-handle" }
