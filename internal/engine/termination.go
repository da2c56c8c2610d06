package engine

// This file holds the three emptiness/livelock termination rules the
// substrates used to hand-roll inside their World adapters. A Termination
// decides when a search must give up: the paper's pool aborts "when any
// process discovers that all the processes involved in the pool
// operations are looking", and each substrate sharpens that rule to what
// its execution model can afford — an exact coverage certificate on the
// real pool, a charged full-lap heuristic in the simulator, a fixed sweep
// budget on the keyed pool (where absence is decidable).

// Termination is the emptiness rule for one handle's searches. Like the
// Substrate it pairs with, a Termination is owned by one handle and is
// not safe for concurrent use.
type Termination interface {
	// Begin arms the rule for a new search wanting up to want elements.
	Begin(want int)
	// SawEmpty records a fruitless probe of segment s.
	SawEmpty(s int)
	// SawProgress records that the probe found elements (or that the
	// search otherwise observed the pool non-empty): accumulated
	// emptiness evidence is stale.
	SawProgress()
	// Aborted reports whether the rule certifies that the search should
	// stop empty-handed.
	Aborted() bool
}

// CoverageState is the pool-wide evidence the Coverage rule consults,
// implemented by the real pool.
type CoverageState interface {
	// Version is a counter that must move for every mutation that could
	// feed an in-flight search (adds, steals, parked gifts). A mutation
	// no running search can miss need not move it: the real pool skips
	// the bump on an add made while no handle is searching, since any
	// search that starts later probes after the add has published.
	Version() uint64
	// AllSearching reports the paper's livelock observation: every
	// registered, unclosed handle is simultaneously inside a search.
	AllSearching() bool
	// GiftsInFlight reports a banked directed-add gift whose owner is
	// still searching — invisible elements that are about to surface, so
	// emptiness must not be certified while one exists.
	GiftsInFlight() bool
	// TransfersInFlight reports a steal mid-transfer: a thief holding a
	// victim's surplus in its private buffer between releasing the
	// victim's lock and depositing into its own segment. Those elements
	// are in no segment — invisible to probes — but are about to land
	// with a version bump, so emptiness must not be certified while a
	// transfer is in flight. Substrates whose steals move elements
	// atomically return false.
	TransfersInFlight() bool
	// Epoch is the membership epoch: a counter bumped on every handle
	// kill, revive, or kill-time element redistribution. An epoch move
	// invalidates all accumulated coverage evidence — a drain-kill can
	// relocate elements into segments a search already saw empty, and a
	// join adds a segment the search never probed — so emptiness must
	// not be certified across one. Pools without dynamic membership
	// return a constant.
	Epoch() uint64
}

// Coverage is the real pool's exact rule: a search may abort only once it
// has probed every segment and found it empty with no pool mutation
// observed in between, and either every open handle is simultaneously
// searching (the paper's livelock rule) or nothing has changed since the
// search began (the sequential-liveness rule for a single goroutine
// driving several handles). Coverage makes the decision exact: a Get
// never returns false while an element it could have taken sits
// unprobed, and batch gifts banked in a still-searching process's
// mailbox hold off the staleness abort until they surface.
type Coverage struct {
	state       CoverageState
	probed      []bool
	probedCount int
	seenVersion uint64
	seenEpoch   uint64
}

// NewCoverage returns a Coverage rule over a pool with the given segment
// count.
func NewCoverage(segments int, state CoverageState) *Coverage {
	return &Coverage{state: state, probed: make([]bool, segments)}
}

// Begin implements Termination: snapshot the pool version and the
// membership epoch, and forget prior coverage.
func (c *Coverage) Begin(int) {
	c.seenVersion = c.state.Version()
	c.seenEpoch = c.state.Epoch()
	c.reset()
}

// reset forgets which segments were seen empty.
func (c *Coverage) reset() {
	for i := range c.probed {
		c.probed[i] = false
	}
	c.probedCount = 0
}

// SawEmpty implements Termination.
func (c *Coverage) SawEmpty(s int) {
	if !c.probed[s] {
		c.probed[s] = true
		c.probedCount++
	}
}

// SawProgress implements Termination.
func (c *Coverage) SawProgress() { c.reset() }

// Aborted implements Termination. The gifts-in-flight check must precede
// the all-searching rule — a banked gift's owner is one of the searchers,
// so lookers >= open exactly while a gift is in flight — and cannot
// livelock: the owner's own-mailbox check (its substrate's Stopped) ends
// its search, clearing its hunger flag either way. The transfer check
// must precede it for the same reason (the thief counts as a looker
// until its successful search returns) and cannot livelock either: the
// thief needs only its own segment lock to finish the deposit and drop
// the flag.
//
// The membership-epoch check comes first — before the coverage
// short-circuit — because an epoch bump can move elements into segments
// this search has already marked probed (a drain-kill redistributes its
// segment mid-search): waiting until coverage completes would certify
// emptiness without ever re-probing the destination. On the no-churn
// path the check costs exactly one atomic load per call.
func (c *Coverage) Aborted() bool {
	if e := c.state.Epoch(); e != c.seenEpoch {
		// Membership changed: every piece of accumulated evidence may be
		// stale. Re-arm against the new epoch and current version.
		c.seenEpoch = e
		c.seenVersion = c.state.Version()
		c.reset()
		return false
	}
	if c.probedCount < len(c.probed) {
		return false
	}
	if c.state.GiftsInFlight() || c.state.TransfersInFlight() {
		return false
	}
	if c.state.AllSearching() {
		return true
	}
	if v := c.state.Version(); v != c.seenVersion {
		// Something changed while we searched: re-arm and continue.
		c.seenVersion = v
		c.reset()
		return false
	}
	return true
}

// LapsState is the shared evidence the Laps rule consults, implemented by
// the simulated pool.
type LapsState interface {
	// AllSearching reports whether every participant is inside a search
	// (the paper's shared-count livelock observation).
	AllSearching() bool
	// LatchEmpty makes every concurrent and future search abort. The
	// all-searching observation is latched so that every concurrent
	// search aborts, not just the process that made the observation
	// (otherwise the first abort lowers the count and strands the rest);
	// the next add clears the latch.
	LatchEmpty()
}

// Laps is the simulator's rule: all participants searching certifies
// emptiness only once this searcher has also invested a full lap's worth
// of consecutive fruitless probes — the paper's processes keep searching
// between checks of the shared count, and charging that effort is what
// reproduces the measured cost of sparse-mix aborts. (The real pool uses
// the exact Coverage rule instead; a simulation trial tolerates the rare
// spurious abort that consecutive counting allows, a 5000-op library run
// must not.)
type Laps struct {
	state  LapsState
	lap    int // probes per full lap (the segment count)
	failed int // consecutive fruitless probes this search
}

// NewLaps returns a Laps rule with a full lap of the given length.
func NewLaps(lap int, state LapsState) *Laps {
	return &Laps{state: state, lap: lap}
}

// Begin implements Termination.
func (l *Laps) Begin(int) { l.failed = 0 }

// SawEmpty implements Termination.
func (l *Laps) SawEmpty(int) { l.failed++ }

// SawProgress implements Termination.
func (l *Laps) SawProgress() { l.failed = 0 }

// Aborted implements Termination.
func (l *Laps) Aborted() bool {
	if l.state.AllSearching() && l.failed >= l.lap {
		l.state.LatchEmpty()
		return true
	}
	return false
}

// Bounded is the keyed pool's rule: a search performs a fixed budget of
// probes (Sweeps full passes over the ring) and then concludes the
// requested class is absent. No livelock rule is needed — a keyed removal
// knows exactly what it is looking for, so emptiness is decidable.
type Bounded struct {
	budget int
	used   int
}

// NewBounded returns a Bounded rule allowing budget probes per search.
func NewBounded(budget int) *Bounded {
	return &Bounded{budget: budget}
}

// Begin implements Termination.
func (b *Bounded) Begin(int) { b.used = 0 }

// SawEmpty implements Termination.
func (b *Bounded) SawEmpty(int) { b.used++ }

// SawProgress implements Termination: a successful probe ends the search,
// so there is no evidence to reset.
func (b *Bounded) SawProgress() {}

// Aborted implements Termination.
func (b *Bounded) Aborted() bool { return b.used >= b.budget }
