package ttt

import "testing"

// FuzzBoardScript plays an arbitrary byte script as alternating moves and
// checks structural invariants: stone counts, winner stability, and
// move-list consistency. Before each stone, every child of the board is
// scored from the mover's move table and must match the full scans of
// its board; the stone is then placed through the same table.
func FuzzBoardScript(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 16, 32, 48})
	f.Add([]byte{})
	f.Add([]byte{0, 16, 1, 17, 2, 18, 3})       // X completes an axis row
	f.Add([]byte{0, 16, 5, 17, 10, 18, 15})     // X completes a face diagonal
	f.Add([]byte{1, 0, 2, 21, 4, 42, 8, 63})    // O completes a space diagonal
	f.Add([]byte{3, 48, 6, 33, 9, 18, 12, 2})   // X completes an anti-diagonal
	f.Add([]byte{0, 1, 16, 32, 17, 33, 18, 34}) // row 0 mixed, open threes for both sides
	f.Fuzz(func(t *testing.T, script []byte) {
		var b Board
		var eval int32
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
			checkChildren(t, b, player)
			mt := b.moveTable(player)
			b, eval, _ = mt.play(b, c, eval)
			if int(eval) != b.Eval() {
				t.Fatalf("eval carried through %d moves is %d, Eval %d", placed+1, eval, b.Eval())
			}
			placed++
			player = player.Opponent()
		}
		if b.Winner() == 0 {
			checkChildren(t, b, player)
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
