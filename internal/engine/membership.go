package engine

// This file adds dynamic membership to the search-steal protocol. The
// paper assumes a fixed set of processes that never crash; every
// substrate inherited that assumption, so a killed handle would either
// strand its segment's elements (nobody probes a departed segment) or
// let a searcher certify emptiness over elements a concurrent
// drain-and-redistribute was moving. Membership is the one shared piece
// that keeps both failure modes impossible:
//
//   - every segment carries an alive bit (its handle is operating) and a
//     victim bit (searches still probe the segment). A kill clears the
//     alive bit and either keeps the victim bit (the segment degrades to
//     a steal-only victim whose reserve drains through other processes'
//     steals — the generalization of Close's parked-gift path) or clears
//     it too (the pool drains and redistributes the segment at kill
//     time, and deposits aimed at it are redirected to a live victim);
//   - a membership epoch is bumped on every leave and join. The exact
//     Coverage termination rule snapshots the epoch when a search begins
//     and discards all accumulated emptiness evidence when it changes —
//     an epoch bump invalidates in-flight coverage certificates exactly
//     as CoverageState.TransfersInFlight guards mid-transfer surpluses.
//     The no-churn fast path stays a single atomic epoch load per abort
//     check.
//
// Membership is substrate-neutral: the real pool reads it under real
// concurrency (all fields are atomics), the simulator under virtual
// time, the keyed pool under its bounded sweeps. Leave, Join and Relocate
// also record every transition and deal a departed segment's elements to
// the survivors, so a substrate supplies only how one unit is deposited.

import (
	"sync/atomic"

	"pools/internal/trace"
)

// Per-segment membership state bits.
const (
	// memberVictim marks a segment that searches still probe. Departed
	// segments keep it in steal-only mode and lose it in drain mode.
	memberVictim uint32 = 1 << 0
	// memberAlive marks a segment whose handle is operating (performing
	// its own adds and removes).
	memberAlive uint32 = 1 << 1
)

// memberWord is one segment's membership bits, padded out to a cache
// line: every abort check loads the searcher's snapshot epoch and every
// probe loop reads victim bits, so a Leave/Join CAS on one segment must
// not invalidate the line its neighbors' read-mostly bits live on.
type memberWord struct {
	w atomic.Uint32
	_ [60]byte
}

// Membership tracks which segments of a pool are alive and which are
// still probed by searches, stamped by an epoch counter that invalidates
// in-flight coverage certificates on every transition. All methods are
// safe for concurrent use; reads are single atomic loads.
//
// The hot fields are line-isolated (the false-sharing audit): epoch is
// loaded on every abort check by every searcher, live is written by
// every Leave/Join, and each segment's state word gets its own line via
// memberWord. Verified by TestMembershipLayout.
type Membership struct {
	epoch atomic.Uint64
	_     [56]byte
	live  atomic.Int32
	_     [60]byte
	state []memberWord
	recs  []*trace.Recorder // per-segment flight recorders; nil until the first Attach
}

// NewMembership returns a membership over n segments, all alive victims.
func NewMembership(n int) *Membership {
	m := &Membership{state: make([]memberWord, n)}
	for i := range m.state {
		m.state[i].w.Store(memberAlive | memberVictim)
	}
	m.live.Store(int32(n))
	return m
}

// Attach makes r segment s's flight recorder: Leave, Join and Relocate
// record segment s's transitions there. Call it before the pool is
// shared; an untraced pool never calls it and pays nothing.
func (m *Membership) Attach(s int, r *trace.Recorder) {
	if m.recs == nil {
		m.recs = make([]*trace.Recorder, len(m.state))
	}
	m.recs[s] = r
}

// record writes one event to segment s's recorder, if one is attached.
func (m *Membership) record(s int, k trace.Kind, arg1, arg2 int32) {
	if m.recs != nil && m.recs[s] != nil {
		m.recs[s].Record(k, arg1, arg2)
	}
}

// Timelines snapshots the attached flight recorders for export, nil
// when none is attached.
func (m *Membership) Timelines() []trace.Timeline {
	if m.recs == nil {
		return nil
	}
	return trace.Collect(m.recs...)
}

// Epoch returns the current membership epoch. Coverage snapshots it at
// search begin and re-arms when it moves.
func (m *Membership) Epoch() uint64 { return m.epoch.Load() }

// Alive reports whether segment s's handle is operating.
func (m *Membership) Alive(s int) bool { return m.state[s].w.Load()&memberAlive != 0 }

// Victim reports whether searches still probe segment s. A departed
// drain-mode segment is not a victim — and the deposit redirects keep it
// empty, so skipping it costs a search nothing.
func (m *Membership) Victim(s int) bool { return m.state[s].w.Load()&memberVictim != 0 }

// Leave removes segment s from the alive set: with keepVictim the
// segment stays a steal-only victim, without it the segment also leaves
// the victim set (the caller drains and redistributes its elements).
// Leave refuses to remove the last alive segment (a pool with no live
// member could strand every element) and reports whether the transition
// happened. On success the epoch has been bumped and a member_leave
// event (arg2 1 for a drain, 0 for steal-only) recorded.
func (m *Membership) Leave(s int, keepVictim bool) bool {
	if m.live.Add(-1) < 1 {
		m.live.Add(1)
		return false
	}
	var next uint32
	if keepVictim {
		next = memberVictim
	}
	for {
		cur := m.state[s].w.Load()
		if cur&memberAlive == 0 {
			m.live.Add(1) // already departed: undo the reservation
			return false
		}
		if m.state[s].w.CompareAndSwap(cur, next) {
			break
		}
	}
	m.epoch.Add(1)
	m.record(s, trace.MemberLeave, int32(s), int32(memberVictim-next)) // 1 drain, 0 steal-only
	return true
}

// Join re-admits segment s as an alive victim (a revive, or a fresh
// member joining after a leave). It reports whether the transition
// happened (false when s is already alive). On success the epoch has
// been bumped and a member_join event recorded.
func (m *Membership) Join(s int) bool {
	for {
		cur := m.state[s].w.Load()
		if cur&memberAlive != 0 {
			return false
		}
		if m.state[s].w.CompareAndSwap(cur, memberAlive|memberVictim) {
			break
		}
	}
	m.live.Add(1)
	m.epoch.Add(1)
	m.record(s, trace.MemberJoin, int32(s), 0)
	return true
}

// Relocate deals the n units (elements, or keyed buckets) of departed
// segment s round-robin over the victims after s in ring order: unit k
// goes to deposit(t, k), which returns the elements it moved. Victim bits
// are re-read per unit, so a segment that leaves mid-deal gets no later
// unit. Then the epoch is bumped, so searches that covered a destination
// re-scan it, and epoch_bump is recorded with the moved count.
func (m *Membership) Relocate(s, n int, deposit func(t, k int) int) {
	moved := 0
	for k, t := 0, s; k < n; k++ {
		t = m.Place((t + 1) % len(m.state))
		moved += deposit(t, k)
	}
	e := m.epoch.Add(1)
	m.record(s, trace.EpochBump, int32(e&0x7fffffff), int32(moved))
}

// Place redirects a deposit aimed at segment s to the nearest victim
// segment in ring order when s has left the victim set (a drain-mode
// kill), so no element lands where searches no longer look. With no
// victim left it returns s. While s is a victim — every call without
// churn — it costs one inlined atomic load.
func (m *Membership) Place(s int) int {
	// Victim's test, spelled out: the call's extra cost would push Place
	// past the inlining budget.
	if m.state[s].w.Load()&memberVictim != 0 {
		return s
	}
	return m.place(s)
}

// place is Place's out-of-line half, for a departed segment. It is kept
// out of line so that Place stays within the inlining budget.
//
//go:noinline
func (m *Membership) place(s int) int {
	if t := m.FallbackVictim(s); t >= 0 {
		return t
	}
	return s
}

// FallbackVictim returns the first victim segment at or after `from` in
// ring order, or -1 when no victim remains. Deposits and parks aimed at
// a departed drain-mode segment are redirected here so no element lands
// where searches no longer look.
func (m *Membership) FallbackVictim(from int) int {
	n := len(m.state)
	for off := 0; off < n; off++ {
		s := (from + off) % n
		if m.state[s].w.Load()&memberVictim != 0 {
			return s
		}
	}
	return -1
}
