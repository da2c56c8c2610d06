// Package trace is the search-steal engine's flight recorder: a
// per-handle fixed-size ring buffer of typed protocol events. The
// paper's claims are about protocol dynamics — who probed whom, when a
// searcher escalated past its cluster, why the coverage rule certified
// emptiness — and aggregate counters cannot answer those questions
// after the fact. The recorder keeps the last N events per handle so
// any run (sim or real) can be opened as a timeline.
//
// Design constraints, in order:
//
//  1. The disabled path costs nothing. Substrates hold a *Recorder
//     that is nil unless tracing was requested; every emission site is
//     a nil check in front of a method call, so the hot path stays
//     0 allocs/op and `make bench-check` arbitrates the residual cost.
//  2. Record is allocation-free once warm. An Event is four scalar
//     fields, the ring is one array allocated by a recorder's first
//     Record (a handle that never emits an event never pays for it), and
//     the clock closures used by the substrates (wall-time-since-epoch,
//     sim virtual clock) do not allocate. The only lock is the
//     recorder's own mutex, which is per-handle and therefore
//     uncontended except against a concurrent dump from the
//     introspection endpoint.
//  3. Dumping is safe while the pool runs. Events() snapshots under
//     the same mutex, so the live /trace endpoint can read a recorder
//     that its handle is still writing (exercised under -race).
//
// Timestamps are int64 "ticks": microseconds since the pool's start on
// the real substrates, virtual time units in the simulator. The
// exporters (ChromeJSON, WriteCSV) treat ticks as microseconds, which
// is exact for the real pool and a harmless relabeling for the sim.
package trace

import "sync"

// Kind identifies one flight-recorder event type. The set mirrors the
// edges of the search-steal protocol: probes (near/cross ring), the
// reserve-transfer that moves elements, gift traffic, hierarchical
// ring escalation, termination verdicts, and cross-tenant steals.
type Kind uint8

// The event kinds, one per protocol edge. Arg1/Arg2 meanings are
// per-kind and documented on each constant.
const (
	// KindInvalid is the zero Kind; a recorder never emits it.
	KindInvalid Kind = iota
	// SearchBegin opens a steal search. Arg1 = elements wanted.
	SearchBegin
	// SearchEnd closes a steal search. Arg1 = elements obtained,
	// Arg2 = highest topology ring the search escalated to (0 when the
	// pool has no topology).
	SearchEnd
	// ProbeNear is a remote probe within the prober's cluster.
	// Arg1 = probed segment, Arg2 = elements obtained.
	ProbeNear
	// ProbeCross is a remote probe outside the prober's cluster.
	// Arg1 = probed segment, Arg2 = elements obtained.
	ProbeCross
	// ReserveTransfer is the substrate's reserve-and-move edge: the
	// victim's share was reserved under its lock and transferred to
	// the thief. Arg1 = victim segment, Arg2 = elements moved.
	ReserveTransfer
	// GiftSend records a directed add handed to another handle's
	// mailbox. Arg1 = receiving segment (-1 when fanned out),
	// Arg2 = elements gifted.
	GiftSend
	// GiftRecv records gifts collected from this handle's mailbox.
	// Arg1 = sending segment (-1 when unknown), Arg2 = elements.
	GiftRecv
	// EscalateRing marks a search widening to a farther topology ring.
	// Arg1 = ring (hop distance) now admitted, Arg2 = first segment
	// probed on that ring.
	EscalateRing
	// TerminationCertified records an empty verdict: the termination
	// rule proved the pool empty. Arg1 = elements wanted.
	TerminationCertified
	// TerminationAborted records a search cut short (Stop, sweep
	// budget, or rule abort) without an emptiness proof.
	// Arg1 = elements wanted.
	TerminationAborted
	// TenantForeignSteal is a steal whose victim belongs to another
	// tenant — the interference edge. Arg1 = victim segment,
	// Arg2 = elements moved.
	TenantForeignSteal
	// DirectPlace records the placement plan routing an add away from
	// the local segment. Arg1 = target segment, Arg2 = batch size.
	DirectPlace
	// Feedback is the post-search Observe edge feeding the adaptive
	// controller. Arg1 = elements obtained (-1 when aborted),
	// Arg2 = probes examined. Only a search's outcome (a steal, an
	// abort, or any probe) is recorded: local hits feed the controller
	// silently, and a gift taken before any probe shows only as its
	// GiftRecv.
	Feedback
	// MemberLeave records a handle leaving the pool's membership (a kill
	// or a departure). Arg1 = departed segment, Arg2 = 1 when its
	// segment was drained and redistributed, 0 when it degraded to a
	// steal-only victim.
	MemberLeave
	// MemberJoin records a handle (re)joining the membership: its
	// segment is re-admitted to victim orders and placements.
	// Arg1 = joined segment.
	MemberJoin
	// EpochBump records a membership-epoch advance outside leave/join —
	// a kill-time drain relocating elements — which invalidates every
	// in-flight coverage certificate. Arg1 = low 31 bits of the new
	// epoch, Arg2 = elements relocated.
	EpochBump
	// numKinds bounds the Kind space for the name table.
	numKinds
)

// kindNames indexes Kind → export name. Keep in sync with the const
// block above; TestKindNames pins the correspondence.
var kindNames = [numKinds]string{
	KindInvalid:          "invalid",
	SearchBegin:          "search_begin",
	SearchEnd:            "search_end",
	ProbeNear:            "probe_near",
	ProbeCross:           "probe_cross",
	ReserveTransfer:      "reserve_transfer",
	GiftSend:             "gift_send",
	GiftRecv:             "gift_recv",
	EscalateRing:         "escalate_ring",
	TerminationCertified: "termination_certified",
	TerminationAborted:   "termination_aborted",
	TenantForeignSteal:   "tenant_foreign_steal",
	DirectPlace:          "direct_place",
	Feedback:             "feedback",
	MemberLeave:          "member_leave",
	MemberJoin:           "member_join",
	EpochBump:            "epoch_bump",
}

// String returns the stable snake_case name used by the JSON and CSV
// exporters.
func (k Kind) String() string {
	if k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one recorded protocol event: a timestamp in recorder ticks,
// the kind, and two kind-specific scalar arguments. Events are plain
// values (no pointers) so the ring is a flat array the GC never scans.
type Event struct {
	// TS is the event time in recorder ticks (microseconds on the
	// real substrates, virtual time in the sim).
	TS int64
	// Kind says which protocol edge fired.
	Kind Kind
	// Arg1 is the first kind-specific argument (see the Kind consts).
	Arg1 int32
	// Arg2 is the second kind-specific argument.
	Arg2 int32
}

// Recorder is a fixed-capacity ring buffer of Events for one handle.
// Record overwrites the oldest event once the ring is full — a flight
// recorder keeps the recent past, not the whole run. The ring is
// allocated by the first Record, so a handle whose path never emits an
// event (an owner that only ever hits its local segment) costs no ring
// memory. All methods are safe for concurrent use; the expected pattern
// is one writer (the owning handle) and occasional readers (the dump
// endpoints).
type Recorder struct {
	mu     sync.Mutex
	clock  func() int64
	handle int
	size   int     // ring capacity; buf is allocated to it on the first Record
	buf    []Event // nil until the first Record
	next   uint64  // events ever recorded; next % size is the write slot
}

// NewRecorder returns a recorder for the given handle with room for
// capacity events, timestamping each Record with clock(). Capacity is
// clamped to at least 1; a nil clock records zero timestamps.
func NewRecorder(handle, capacity int, clock func() int64) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	return &Recorder{clock: clock, handle: handle, size: capacity}
}

// Record appends one event, overwriting the oldest if the ring is
// full. Only the first call allocates (the ring itself).
func (r *Recorder) Record(k Kind, arg1, arg2 int32) {
	ts := r.clock()
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]Event, r.size)
	}
	r.buf[r.next%uint64(len(r.buf))] = Event{TS: ts, Kind: k, Arg1: arg1, Arg2: arg2}
	r.next++
	r.mu.Unlock()
}

// Handle returns the handle index this recorder belongs to.
func (r *Recorder) Handle() int { return r.handle }

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Dropped reports how many events have been overwritten because the
// ring wrapped.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped()
}

func (r *Recorder) dropped() uint64 {
	if r.next < uint64(len(r.buf)) {
		return 0
	}
	return r.next - uint64(len(r.buf))
}

// Events returns a snapshot of the retained events, oldest first. The
// snapshot is a fresh slice; the recorder may keep recording while the
// caller walks it.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events()
}

// events copies the retained events, oldest first; r.mu must be held. A
// ring that has not wrapped — including one not yet allocated — is
// copied from its start.
func (r *Recorder) events() []Event {
	n := uint64(len(r.buf))
	if r.next <= n {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, n)
	start := r.next % n
	copy(out, r.buf[start:])
	copy(out[n-start:], r.buf[:start])
	return out
}

// Timeline snapshots the recorder into an exportable Timeline, its
// events and dropped count taken under one lock hold.
func (r *Recorder) Timeline() Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Timeline{Handle: r.handle, Events: r.events(), Dropped: r.dropped()}
}

// Timeline is one handle's exportable slice of the flight recorder: a
// snapshot of its retained events plus how many older events the ring
// had already overwritten.
type Timeline struct {
	// Handle is the owning handle's index (one track per handle in
	// the Chrome export).
	Handle int
	// Events holds the retained events, oldest first.
	Events []Event
	// Dropped counts events lost to ring wraparound before this
	// snapshot.
	Dropped uint64
}

// Collect snapshots a set of recorders into timelines, skipping nil
// recorders (handles with tracing disabled).
func Collect(recs ...*Recorder) []Timeline {
	out := make([]Timeline, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			out = append(out, r.Timeline())
		}
	}
	return out
}
