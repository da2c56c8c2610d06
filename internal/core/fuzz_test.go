package core

import "testing"

// FuzzMembership interprets a byte script as interleaved pool operations
// and membership transitions, and checks the chaos layer's three
// invariants after every step:
//
//   - conservation: the pool holds exactly puts-takes elements, whatever
//     sequence of drain kills, steal-only kills, and revives ran;
//   - no false-empty certification: a Get by a live handle must produce
//     an element whenever the model says one exists (the coverage abort
//     rule stays exact across every membership epoch);
//   - transition soundness: Kill succeeds exactly when the target is
//     alive and not the last live member, Revive exactly when it is dead.
//
// Script encoding, one byte per step: top two bits select the operation
// (0 put, 1 get, 2 kill, 3 revive), the low two bits the target segment,
// and bit 2 the kill mode (set = drain).
func FuzzMembership(f *testing.F) {
	// Seeds: a drain-kill cycle with elements in flight, a steal-only
	// reserve drained by a survivor, a kill cascade down to the refusal
	// on the last live member, and revives interleaved with operations.
	f.Add([]byte{0x00, 0x00, 0x00, 0x84, 0x41, 0x41, 0xc0, 0x41})
	f.Add([]byte{0x00, 0x00, 0x81, 0x42, 0x42, 0xc1, 0x00, 0x42})
	f.Add([]byte{0x84, 0x85, 0x86, 0x87, 0xc0, 0xc1, 0xc2, 0xc3})
	f.Add([]byte{0x00, 0x86, 0x00, 0x41, 0xc2, 0x85, 0x41, 0x00, 0xc1, 0x41})
	f.Fuzz(func(t *testing.T, script []byte) {
		const segments = 4
		p, err := New[int](Options{Segments: segments, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for step, b := range script {
			tgt := int(b & 3)
			drain := b&4 != 0
			switch b >> 6 {
			case 0:
				aliveHandle(p).Put(step)
				count++
			case 1:
				if _, ok := aliveHandle(p).Get(); ok {
					count--
				} else if count > 0 {
					t.Fatalf("step %d: false-empty certification with %d elements present", step, count)
				}
			case 2:
				killable := p.Alive(tgt) && liveCount(p) > 1
				if got := p.Kill(tgt, drain); got != killable {
					t.Fatalf("step %d: Kill(%d, drain=%v) = %v, want %v", step, tgt, drain, got, killable)
				}
			case 3:
				wasDead := !p.Alive(tgt)
				if got := p.Revive(tgt); got != wasDead {
					t.Fatalf("step %d: Revive(%d) = %v, want %v", step, tgt, got, wasDead)
				}
			}
			if got := p.Len(); got != count {
				t.Fatalf("step %d: conservation violated: Len = %d, model = %d", step, got, count)
			}
		}
	})
}
