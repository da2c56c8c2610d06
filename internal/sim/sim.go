// Package sim is the measurement substrate that stands in for the paper's
// 16-processor BBN Butterfly: a deterministic virtual-time multiprocessor.
//
// The paper's experimental effects — long searches under sparse job mixes,
// consumer bunching at producers' segments, convergence of the three
// algorithms as remote delays grow — are latency-accounting phenomena:
// they depend on how many accesses a process performs, how expensive each
// is (local vs remote), and how much queueing it suffers at contended
// objects. This simulator models exactly that:
//
//   - each virtual processor is a coroutine with its own virtual clock
//     (microseconds);
//   - one loop (RunProcs) always resumes the processor with the smallest
//     clock, the lowest index first at equal clocks, so execution is
//     deterministic given a seed;
//   - shared objects (segments, tree nodes, shared counters) are
//     Resources with a busy-until time: accessing one queues behind the
//     previous holder, charging queueing delay exactly like a contended
//     lock on the Butterfly;
//   - access costs come from internal/numa's CostModel (remote = 4x
//     local, plus the Section 4.3 additive delay sweep).
//
// Between two Charge calls a processor's Go code runs exclusively (only
// one coroutine runs at a time, and RunProcs' caller waits while it
// does), so simulation state needs no locks and real Go data structures
// (deques, game boards) can serve as the simulated memory contents.
package sim

import "iter"

// Resource is a shared object in the simulated machine: a pool segment, a
// tree node, or a shared counter. Accesses serialize: a processor arriving
// while the resource is busy waits until it frees, accumulating queueing
// delay (the simulated analogue of lock contention).
type Resource struct {
	busyUntil int64
	waited    int64 // total queueing delay suffered at this resource
}

// Waited returns the total queueing delay (virtual µs) suffered by all
// processors at this resource — the contention measure behind the paper's
// "increased interference between the processes as they collide at the
// producers' segments".
func (r *Resource) Waited() int64 { return r.waited }

// RunProcs runs one virtual processor per body, processor i executing
// bodies[i], until every body has returned, and returns the final virtual
// time (the makespan: the largest processor clock). Each body runs as a
// coroutine that suspends itself at every Charge; one loop resumes the
// unfinished processor with the smallest clock, the lowest index first at
// equal clocks. A panic in a body reaches RunProcs' caller; the suspended
// peers of such a run are abandoned, never resumed.
func RunProcs(bodies ...func(*Env)) int64 {
	if len(bodies) == 0 {
		panic("sim: RunProcs with no bodies")
	}
	envs := make([]Env, len(bodies))
	resume := make([]func() (struct{}, bool), len(bodies))
	for i, body := range bodies {
		e := &envs[i]
		e.id = i
		// The stop half of the pair is never called: a body that returned
		// needs none, and stopping a suspended peer would make its yield
		// return false and run the rest of its body unscheduled.
		resume[i], _ = iter.Pull(func(yield func(struct{}) bool) {
			e.yield = yield
			body(e)
		})
	}
	for {
		next := -1
		for i := range envs {
			if resume[i] != nil && (next < 0 || envs[i].clock < envs[next].clock) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		if _, ok := resume[next](); !ok {
			resume[next] = nil // the body returned
		}
	}
	var makespan int64
	for i := range envs {
		makespan = max(makespan, envs[i].clock)
	}
	return makespan
}

// Env is one virtual processor as its body sees it: its index, its
// virtual clock, and the coroutine yield that hands control back to
// RunProcs' loop. Each body receives its own Env and must use it only
// from within that body.
type Env struct {
	id    int
	clock int64
	yield func(struct{}) bool
}

// ID returns the virtual processor's index.
func (e *Env) ID() int { return e.id }

// Now returns the processor's current virtual time (µs).
func (e *Env) Now() int64 { return e.clock }

// Charge spends cost virtual µs accessing r. If r is busy the processor
// first waits for it to free (queueing). A nil resource models private
// computation with no contention. Charge is the scheduling point: the
// processor may be suspended here while others run.
func (e *Env) Charge(r *Resource, cost int64) {
	if cost < 0 {
		cost = 0
	}
	e.yield(struct{}{})
	start := e.clock
	if r != nil {
		if r.busyUntil > start {
			r.waited += r.busyUntil - start
			start = r.busyUntil
		}
	}
	e.clock = start + cost
	if r != nil {
		r.busyUntil = e.clock
	}
}

// Compute spends cost virtual µs of private computation.
func (e *Env) Compute(cost int64) { e.Charge(nil, cost) }
