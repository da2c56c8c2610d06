package engine_test

// One membership script run against every substrate: kills, refusals,
// revives and the recorded transitions must agree wherever the pool
// lives, because all three take them from engine.Membership. Each row
// adapts a four-segment pool to memberPool; handle 1 is the actor that
// operates, segment 0 is the one that departs with elements.

import (
	"testing"

	"pools/internal/core"
	"pools/internal/keyed"
	"pools/internal/numa"
	"pools/internal/sim"
	"pools/internal/trace"
)

const (
	confSegs = 4
	confFill = 40
)

// memberPool is one substrate seen through its membership API. victim,
// epoch and segLen are nil where the substrate does not export them.
type memberPool struct {
	fill0     func(v int)        // puts v into segment 0
	put       func(v int)        // handle 1 puts v
	get       func() (int, bool) // handle 1 takes one element
	kill      func(i int, drain bool) bool
	revive    func(i int) bool
	alive     func(i int) bool
	victim    func(i int) bool
	epoch     func() uint64
	length    func() int
	segLen    func(i int) int
	timelines func() []trace.Timeline
}

var memberRows = []struct {
	name string
	run  func(t *testing.T, script func(memberPool))
}{
	{"core", func(t *testing.T, script func(memberPool)) {
		p, err := core.New[int](core.Options{Segments: confSegs, TraceBuf: 4096})
		if err != nil {
			t.Fatal(err)
		}
		script(memberPool{
			fill0:     p.Handle(0).Put,
			put:       p.Handle(1).Put,
			get:       p.Handle(1).Get,
			kill:      p.Kill,
			revive:    p.Revive,
			alive:     p.Alive,
			victim:    p.Victim,
			epoch:     p.Epoch,
			length:    p.Len,
			segLen:    p.SegmentLen,
			timelines: p.Timelines,
		})
	}},
	{"keyed", func(t *testing.T, script func(memberPool)) {
		p, err := keyed.New[string, int](keyed.Options{Segments: confSegs, TraceBuf: 4096})
		if err != nil {
			t.Fatal(err)
		}
		script(memberPool{
			fill0:     func(v int) { p.Handle(0).Put("k", v) },
			put:       func(v int) { p.Handle(1).Put("k", v) },
			get:       func() (int, bool) { return p.Handle(1).Get("k") },
			kill:      p.Kill,
			revive:    p.Revive,
			alive:     p.Alive,
			victim:    p.Victim,
			epoch:     p.Epoch,
			length:    p.Len,
			timelines: p.Timelines,
		})
	}},
	{"sim", func(t *testing.T, script func(memberPool)) {
		p := sim.NewPool[int](sim.PoolConfig{Procs: confSegs, Costs: numa.ButterflyCosts(), EventBuf: 4096})
		bodies := make([]func(*sim.Env), confSegs)
		for id := range bodies {
			bodies[id] = func(env *sim.Env) {
				pr := p.Proc(env) // binds (and attaches) every recorder
				if id != 1 {
					return
				}
				env.Compute(1) // let every other processor bind first
				script(memberPool{
					fill0:     p.Inject,
					put:       pr.Put,
					get:       pr.Get,
					kill:      func(i int, drain bool) bool { return p.Kill(env, i, drain) },
					revive:    p.Revive,
					alive:     p.Alive,
					length:    p.Len,
					segLen:    p.SegmentLen,
					timelines: p.Timelines,
				})
			}
		}
		sim.RunProcs(bodies...)
	}},
}

// TestMembershipConformance runs the membership script on every
// substrate. Checks use Errorf and return, never Fatal: the sim row's
// script runs on a processor's coroutine, not the test goroutine.
func TestMembershipConformance(t *testing.T) {
	for _, row := range memberRows {
		t.Run(row.name, func(t *testing.T) {
			ran := false
			row.run(t, func(p memberPool) {
				ran = true
				memberScript(t, p)
			})
			if !ran {
				t.Fatal("script never ran")
			}
		})
	}
}

func memberScript(t *testing.T, p memberPool) {
	var epoch uint64
	epochMoved := func(what string, by uint64) {
		if p.epoch == nil {
			return
		}
		if got := p.epoch(); got != epoch+by {
			t.Errorf("%s: epoch %d→%d, want +%d", what, epoch, got, by)
		}
	}
	takeAll := func(what string) bool {
		for i := 0; i < confFill; i++ {
			if _, ok := p.get(); !ok {
				t.Errorf("%s: element %d unreachable", what, i)
				return false
			}
		}
		if n := p.length(); n != 0 {
			t.Errorf("%s: Len = %d after taking every element, want 0", what, n)
			return false
		}
		return true
	}

	// A drain kill clears alive and victim, bumps the epoch (leave and
	// relocation), conserves Len and empties the departed segment.
	for i := 0; i < confFill; i++ {
		p.fill0(i)
	}
	if p.epoch != nil {
		epoch = p.epoch()
	}
	if !p.kill(0, true) {
		t.Error("drain kill of 0 refused")
		return
	}
	if p.alive(0) || p.victim != nil && p.victim(0) {
		t.Error("drain-killed segment 0 still alive or a victim")
	}
	epochMoved("drain kill", 2)
	if n := p.length(); n != confFill {
		t.Errorf("drain kill lost elements: Len = %d, want %d", n, confFill)
	}
	if p.segLen != nil && p.segLen(0) != 0 {
		t.Errorf("drained segment 0 still holds %d elements", p.segLen(0))
	}
	if !takeAll("after drain kill") {
		return
	}

	// Refusals: a dead member, and the last live member.
	if p.kill(0, true) {
		t.Error("killing a dead member must be refused")
	}
	if !p.kill(2, true) || !p.kill(3, false) {
		t.Error("kills of 2 and 3 refused")
		return
	}
	if p.kill(1, false) || p.kill(1, true) {
		t.Error("killing the last live member must be refused")
	}
	if !p.alive(1) {
		t.Error("refused kill still removed the member")
	}

	// Revive re-admits once; after it the refused kill goes through, and
	// a revived handle operates normally.
	for _, s := range []int{0, 1} {
		if s == 1 && !p.kill(1, false) {
			t.Error("kill after a revive restored a second live member refused")
		}
		if !p.revive(s) {
			t.Errorf("revive of %d failed", s)
		}
		if p.revive(s) {
			t.Errorf("second revive of %d must report false", s)
		}
		if !p.alive(s) || p.victim != nil && !p.victim(s) {
			t.Errorf("revived member %d not fully re-admitted", s)
		}
	}
	p.put(9)
	if v, ok := p.get(); !ok || v != 9 {
		t.Errorf("revived handle Get = (%d, %v), want (9, true)", v, ok)
	}

	// A steal-only kill keeps the victim bit and the elements in place;
	// they drain through the survivor's steals.
	for i := 0; i < confFill; i++ {
		p.fill0(i)
	}
	if p.epoch != nil {
		epoch = p.epoch()
	}
	if !p.kill(0, false) {
		t.Error("steal-only kill of 0 refused")
		return
	}
	if p.alive(0) || p.victim != nil && !p.victim(0) {
		t.Error("steal-only kill must clear alive and keep the victim bit")
	}
	epochMoved("steal-only kill", 1)
	if p.segLen != nil && p.segLen(0) != confFill {
		t.Errorf("steal-only segment holds %d elements, want %d in place", p.segLen(0), confFill)
	}
	if !takeAll("after steal-only kill") {
		return
	}

	// The recorded transitions: one member_leave/epoch_bump pair per
	// drain kill (of 0 and 2), the first relocating every element.
	var drains, stealOnly, joins int
	var bumps []int32
	for _, tl := range p.timelines() {
		for _, ev := range tl.Events {
			switch ev.Kind {
			case trace.MemberLeave:
				if ev.Arg2 == 1 {
					drains++
				} else {
					stealOnly++
				}
			case trace.MemberJoin:
				joins++
			case trace.EpochBump:
				bumps = append(bumps, ev.Arg2)
			}
		}
	}
	if drains != 2 || stealOnly != 3 || joins != 2 {
		t.Errorf("recorded %d drain leaves, %d steal-only leaves, %d joins; want 2, 3, 2", drains, stealOnly, joins)
	}
	if len(bumps) != drains || len(bumps) > 0 && bumps[0] != confFill {
		t.Errorf("epoch_bump moved counts %v, want one per drain kill, the first %d", bumps, confFill)
	}
}
