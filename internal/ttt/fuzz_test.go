package ttt

import "testing"

// FuzzBoardScript plays an arbitrary byte script as alternating moves and
// checks structural invariants: stone counts, winner stability, and
// move-list consistency. Every stone is placed with playScored, whose
// incremental Eval and Winner must equal the full scans of the new board.
func FuzzBoardScript(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 16, 32, 48})
	f.Add([]byte{})
	f.Add([]byte{0, 16, 1, 17, 2, 18, 3})     // X completes an axis row
	f.Add([]byte{0, 16, 5, 17, 10, 18, 15})   // X completes a face diagonal
	f.Add([]byte{1, 0, 2, 21, 4, 42, 8, 63})  // O completes a space diagonal
	f.Add([]byte{3, 48, 6, 33, 9, 18, 12, 2}) // X completes an anti-diagonal
	f.Fuzz(func(t *testing.T, script []byte) {
		var b Board
		eval := 0
		player := X
		placed := 0
		for _, raw := range script {
			c := int(raw) % Cells
			if b.Occupied()&(1<<uint(c)) != 0 {
				continue // skip occupied cells; Play panics by contract
			}
			if b.Winner() != 0 {
				break
			}
			next, nextEval, w := b.playScored(c, player, eval)
			if want := next.Eval(); nextEval != want {
				t.Fatalf("incremental eval %d != Eval %d after %v at %d", nextEval, want, player, c)
			}
			if want := next.Winner(); w != want {
				t.Fatalf("incremental winner %v != Winner %v after %v at %d", w, want, player, c)
			}
			b, eval = next, nextEval
			placed++
			player = player.Opponent()
		}
		if b.MoveCount() != placed {
			t.Fatalf("MoveCount %d != placed %d", b.MoveCount(), placed)
		}
		if b.XBits&b.OBits != 0 {
			t.Fatal("players overlap")
		}
		moves := b.Moves(nil)
		if len(moves) != Cells-placed {
			t.Fatalf("moves %d != %d", len(moves), Cells-placed)
		}
		// Eval must be antisymmetric under color swap.
		swapped := Board{XBits: b.OBits, OBits: b.XBits}
		if b.Eval() != -swapped.Eval() {
			t.Fatal("eval not antisymmetric")
		}
		// A winner implies a full line for that player.
		if w := b.Winner(); w != 0 {
			found := false
			for _, m := range LineMasks() {
				if w == X && b.XBits&m == m || w == O && b.OBits&m == m {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("winner without a full line")
			}
		}
	})
}
