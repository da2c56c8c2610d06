package engine

import (
	"slices"
	"sync"
	"testing"

	"pools/internal/trace"
)

// TestMembershipTransitions exercises the leave/join state machine: bit
// transitions, live counting, last-alive refusal, idempotence, and the
// epoch stamp on every successful transition.
func TestMembershipTransitions(t *testing.T) {
	m := NewMembership(4)
	if len(m.state) != 4 || int(m.live.Load()) != 4 {
		t.Fatalf("fresh membership: Segments=%d Live=%d, want 4/4", len(m.state), int(m.live.Load()))
	}
	for s := 0; s < 4; s++ {
		if !m.Alive(s) || !m.Victim(s) {
			t.Fatalf("fresh segment %d: Alive=%v Victim=%v, want true/true", s, m.Alive(s), m.Victim(s))
		}
	}
	e0 := m.Epoch()

	// Steal-only leave: dead but still a victim.
	if !m.Leave(1, true) {
		t.Fatal("Leave(1, keepVictim) refused on a fresh membership")
	}
	if m.Alive(1) || !m.Victim(1) {
		t.Fatalf("steal-only departed segment: Alive=%v Victim=%v, want false/true", m.Alive(1), m.Victim(1))
	}
	if int(m.live.Load()) != 3 {
		t.Fatalf("Live=%d after one leave, want 3", int(m.live.Load()))
	}
	if m.Epoch() == e0 {
		t.Fatal("Leave did not bump the epoch")
	}

	// Drain leave: dead and out of the victim set.
	if !m.Leave(2, false) {
		t.Fatal("Leave(2, drain) refused")
	}
	if m.Alive(2) || m.Victim(2) {
		t.Fatalf("drained departed segment: Alive=%v Victim=%v, want false/false", m.Alive(2), m.Victim(2))
	}

	// Leaving an already-departed segment is a no-op.
	e := m.Epoch()
	if m.Leave(1, false) {
		t.Fatal("Leave succeeded on an already-departed segment")
	}
	if m.Epoch() != e || int(m.live.Load()) != 2 {
		t.Fatalf("failed Leave mutated state: epoch %d→%d, Live=%d", e, m.Epoch(), int(m.live.Load()))
	}

	// Join re-admits as a full alive victim; joining an alive segment is
	// a no-op.
	if !m.Join(2) {
		t.Fatal("Join(2) refused on a departed segment")
	}
	if !m.Alive(2) || !m.Victim(2) || int(m.live.Load()) != 3 {
		t.Fatalf("rejoined segment: Alive=%v Victim=%v Live=%d, want true/true/3", m.Alive(2), m.Victim(2), int(m.live.Load()))
	}
	if m.Epoch() == e {
		t.Fatal("Join did not bump the epoch")
	}
	if m.Join(2) {
		t.Fatal("Join succeeded on an alive segment")
	}

	// An empty relocation advances the epoch with no membership change.
	e = m.Epoch()
	m.Relocate(2, 0, nil)
	if m.Epoch() != e+1 || int(m.live.Load()) != 3 || !m.Alive(2) {
		t.Fatalf("Relocate(2, 0, nil): Epoch=%d Live=%d Alive(2)=%v, want %d/3/true", m.Epoch(), int(m.live.Load()), m.Alive(2), e+1)
	}
}

// TestMembershipRelocate covers the shared deal and the recorded
// transitions: units go round-robin over the victims after the departed
// segment (steal-only members included, drained ones skipped), a
// segment that leaves mid-deal gets no later unit, each relocation
// moves the epoch by exactly one, and the attached recorders see
// member_leave, member_join and epoch_bump with their arguments.
func TestMembershipRelocate(t *testing.T) {
	m := NewMembership(6)
	if m.Timelines() != nil {
		t.Fatal("Timelines() non-nil with no recorder attached")
	}
	var recs [6]*trace.Recorder
	for s := range recs {
		recs[s] = trace.NewRecorder(s, 16, nil)
		m.Attach(s, recs[s])
	}
	if !m.Leave(1, true) || !m.Leave(3, false) || !m.Leave(0, false) {
		t.Fatal("setup leaves refused")
	}

	// Deal order from 0's successor over victims 1 (steal-only), 2, 4, 5.
	var got []int
	e := m.Epoch()
	m.Relocate(0, 6, func(tgt, k int) int {
		if k != len(got) {
			t.Fatalf("unit %d dealt out of order (after %d units)", k, len(got))
		}
		got = append(got, tgt)
		return 2
	})
	if want := []int{1, 2, 4, 5, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("deal order %v, want %v", got, want)
	}
	if m.Epoch() != e+1 {
		t.Fatalf("Relocate moved the epoch %d→%d, want exactly one", e, m.Epoch())
	}

	// A segment that leaves from inside deposit is skipped for every
	// later unit.
	got = got[:0]
	m.Relocate(0, 7, func(tgt, k int) int {
		got = append(got, tgt)
		if k == 2 && !m.Leave(5, false) {
			t.Fatal("Leave(5) inside deposit refused")
		}
		return 1
	})
	if want := []int{1, 2, 4, 1, 2, 4, 1}; !slices.Equal(got, want) {
		t.Fatalf("deal order with a mid-deal leave %v, want %v", got, want)
	}
	if !m.Join(3) {
		t.Fatal("Join(3) refused")
	}

	type ev struct {
		k          trace.Kind
		arg1, arg2 int32
	}
	events := func(s int) []ev {
		var out []ev
		for _, x := range recs[s].Events() {
			out = append(out, ev{x.Kind, x.Arg1, x.Arg2})
		}
		return out
	}
	want := map[int][]ev{
		0: {{trace.MemberLeave, 0, 1}, {trace.EpochBump, int32(e + 1), 12}, {trace.EpochBump, int32(e + 3), 7}},
		1: {{trace.MemberLeave, 1, 0}},
		2: nil,
		3: {{trace.MemberLeave, 3, 1}, {trace.MemberJoin, 3, 0}},
		4: nil,
		5: {{trace.MemberLeave, 5, 1}},
	}
	for s, w := range want {
		if g := events(s); !slices.Equal(g, w) {
			t.Errorf("segment %d recorded %v, want %v", s, g, w)
		}
	}
	if tl := m.Timelines(); len(tl) != 6 || tl[3].Handle != 3 || len(tl[3].Events) != 2 {
		t.Errorf("Timelines() = %d timelines, want one per attached recorder", len(tl))
	}
}

// TestMembershipLastAlive pins the refusal rule: the last alive segment
// cannot leave — a pool with no live member would strand every element.
func TestMembershipLastAlive(t *testing.T) {
	m := NewMembership(3)
	if !m.Leave(0, true) || !m.Leave(1, false) {
		t.Fatal("setup leaves refused")
	}
	e := m.Epoch()
	if m.Leave(2, true) {
		t.Fatal("last alive segment was allowed to leave")
	}
	if int(m.live.Load()) != 1 || !m.Alive(2) || m.Epoch() != e {
		t.Fatalf("refused Leave mutated state: Live=%d Alive(2)=%v epoch %d→%d", int(m.live.Load()), m.Alive(2), e, m.Epoch())
	}
	// After a rejoin the previously-refused leave goes through.
	if !m.Join(0) || !m.Leave(2, true) {
		t.Fatal("leave still refused after a rejoin restored a second live member")
	}
}

// TestMembershipFallbackVictim covers the redirect scan: nearest victim
// at or after `from` in ring order, wrapping, and -1 when none remains.
func TestMembershipFallbackVictim(t *testing.T) {
	m := NewMembership(4)
	m.Leave(2, false)
	if got := m.FallbackVictim(2); got != 3 {
		t.Fatalf("FallbackVictim(2) = %d, want 3", got)
	}
	m.Leave(3, false)
	if got := m.FallbackVictim(2); got != 0 {
		t.Fatalf("FallbackVictim(2) = %d, want 0 (ring wrap)", got)
	}
	if got := m.FallbackVictim(1); got != 1 {
		t.Fatalf("FallbackVictim(1) = %d, want 1 (victim itself)", got)
	}

	// All victims gone is representable even though all alive is not:
	// steal-only members keep the victim bit, so strip it by hand.
	one := NewMembership(1)
	one.state[0].w.Store(memberAlive)
	if got := one.FallbackVictim(0); got != -1 {
		t.Fatalf("FallbackVictim with no victims = %d, want -1", got)
	}
}

// TestMembershipPlace covers the deposit redirect: a victim keeps its
// deposit, a departed drain-mode segment's deposit goes to the nearest
// victim in ring order (wrapping), and with no victim left the target
// comes back unchanged.
func TestMembershipPlace(t *testing.T) {
	m := NewMembership(4)
	for s := 0; s < 4; s++ {
		if got := m.Place(s); got != s {
			t.Fatalf("Place(%d) on a fresh membership = %d, want itself", s, got)
		}
	}
	m.Leave(1, true) // steal-only: still a victim
	if got := m.Place(1); got != 1 {
		t.Fatalf("Place(1) on a steal-only departed segment = %d, want 1", got)
	}
	m.Leave(2, false)
	if got := m.Place(2); got != 3 {
		t.Fatalf("Place(2) = %d, want 3 (next victim)", got)
	}
	m.Leave(3, false)
	if got := m.Place(3); got != 0 {
		t.Fatalf("Place(3) = %d, want 0 (ring wrap)", got)
	}
	if got := m.Place(2); got != 0 {
		t.Fatalf("Place(2) = %d, want 0 (skips departed 3, wraps)", got)
	}

	// No victim left: strip the bit by hand, as Leave keeps one alive.
	one := NewMembership(1)
	one.state[0].w.Store(memberAlive)
	if got := one.Place(0); got != 0 {
		t.Fatalf("Place with no victims = %d, want 0 unchanged", got)
	}
}

// TestMembershipConcurrentChurn hammers leave/join from many goroutines
// (run under -race) and checks the conserved quantities afterwards: the
// live count matches the alive bits, at least one member survived, and
// the epoch moved at least as many times as there were successful
// transitions.
func TestMembershipConcurrentChurn(t *testing.T) {
	const segs, workers, iters = 8, 8, 500
	m := NewMembership(segs)
	var transitions sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 0
			for i := 0; i < iters; i++ {
				s := (w + i) % segs
				if i%2 == 0 {
					if m.Leave(s, i%4 == 0) {
						n++
					}
				} else if m.Join(s) {
					n++
				}
			}
			transitions.Store(w, n)
		}(w)
	}
	wg.Wait()

	alive := 0
	for s := 0; s < segs; s++ {
		if m.Alive(s) {
			alive++
		}
	}
	if alive != int(m.live.Load()) {
		t.Fatalf("Live()=%d but %d alive bits set", int(m.live.Load()), alive)
	}
	if alive < 1 {
		t.Fatal("churn killed the last alive member")
	}
	total := 0
	transitions.Range(func(_, v any) bool { total += v.(int); return true })
	if got := m.Epoch(); got != uint64(total) {
		t.Fatalf("epoch %d after %d successful transitions", got, total)
	}
}
