package policy

import "sync"

// PerHandle is the per-handle adaptive policy: a Control whose Spawn
// hands every pool handle its own independent Adaptive instance, which
// is also that handle's steal amount unless the set names one. The
// paper's processes are heterogeneous — its producer/consumer workloads
// (Section 3.3) give half the processes a steal rate of zero and the
// other half a steal rate near one — and a single pool-wide controller
// averages those opposing signals into a fraction that suits neither.
// Under PerHandle the two converge to different steal fractions instead
// of fighting over one shared window.
//
// A PerHandle must not be shared between independent runs: construct a
// fresh one per trial (Named does).
type PerHandle struct {
	mu   sync.Mutex
	subs map[int]*Adaptive
}

// NewPerHandle returns a per-handle adaptive policy with no spawned
// controllers yet; each handle's instance starts at the paper's
// steal-half fraction, exactly like NewAdaptive.
func NewPerHandle() *PerHandle {
	return &PerHandle{subs: map[int]*Adaptive{}}
}

// Spawn implements Control: the handle's own Adaptive, created on first
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

// Name implements Control.
func (p *PerHandle) Name() string { return "per-handle" }
