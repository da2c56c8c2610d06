// Package ttt implements the paper's application study (Section 4.4): a
// parallel 3-dimensional tic-tac-toe (4x4x4) program using the minimax
// algorithm over a game tree whose unexpanded nodes live in a work list —
// either a concurrent pool or the original global-lock stack. "To examine
// the first three moves of a 4 by 4 by 4 game requires examining 249,984
// board positions" (64 * 63 * 62).
//
// Board.Eval and Board.Winner score a position by scanning all 76 lines.
// The parallel Engine runs those scans on the root alone. A move changes
// just the 4 or 7 lines through its cell, so an expansion first scores
// the parent's 76 lines once for the side to move: a move table holding
// what a stone of that side adds to each line's Eval term, and the cells
// where it completes a line. Each child's score and winner are then its
// parent's plus its cell's entries. The full scans, and the sequential
// Minimax built on them, are the reference the engine is tested against.
package ttt

import (
	"fmt"
	"math/bits"
	"strings"
)

// Size is the board edge length; the board is Size^3 cells.
const Size = 4

// Cells is the number of board cells (64).
const Cells = Size * Size * Size

// NumLines is the number of winning lines on a 4x4x4 board: 48 axis rows,
// 24 in-plane diagonals, and 4 space diagonals.
const NumLines = 76

// Player identifies a side. X moves first.
type Player int8

// The two players.
const (
	X Player = 1
	O Player = -1
)

// Opponent returns the other player.
func (p Player) Opponent() Player { return -p }

// String returns "X" or "O".
func (p Player) String() string {
	switch p {
	case X:
		return "X"
	case O:
		return "O"
	default:
		return "?"
	}
}

// Cell converts (x, y, z) coordinates (0..3 each) to a cell index.
func Cell(x, y, z int) int { return x + Size*y + Size*Size*z }

// Coords converts a cell index back to (x, y, z).
func Coords(c int) (x, y, z int) {
	return c % Size, (c / Size) % Size, c / (Size * Size)
}

// lineMasks holds one 64-bit occupancy mask per winning line.
var lineMasks = [NumLines]uint64(buildLines())

// buildLines enumerates all 76 winning lines as bitmasks.
func buildLines() []uint64 {
	var lines []uint64
	addLine := func(cells [Size]int) {
		var m uint64
		for _, c := range cells {
			m |= 1 << uint(c)
		}
		lines = append(lines, m)
	}
	// Axis rows: vary one coordinate, fix the other two. 3 * 16 = 48.
	for a := 0; a < Size; a++ {
		for b := 0; b < Size; b++ {
			var lx, ly, lz [Size]int
			for i := 0; i < Size; i++ {
				lx[i] = Cell(i, a, b)
				ly[i] = Cell(a, i, b)
				lz[i] = Cell(a, b, i)
			}
			addLine(lx)
			addLine(ly)
			addLine(lz)
		}
	}
	// In-plane diagonals: for each orientation, each of the 4 planes has 2.
	// 3 * 4 * 2 = 24.
	for a := 0; a < Size; a++ {
		var d [6][Size]int
		for i := 0; i < Size; i++ {
			d[0][i] = Cell(i, i, a)        // xy plane, main
			d[1][i] = Cell(i, Size-1-i, a) // xy plane, anti
			d[2][i] = Cell(i, a, i)        // xz plane, main
			d[3][i] = Cell(i, a, Size-1-i) // xz plane, anti
			d[4][i] = Cell(a, i, i)        // yz plane, main
			d[5][i] = Cell(a, i, Size-1-i) // yz plane, anti
		}
		for _, l := range d {
			addLine(l)
		}
	}
	// Space diagonals: 4.
	var s [4][Size]int
	for i := 0; i < Size; i++ {
		s[0][i] = Cell(i, i, i)
		s[1][i] = Cell(Size-1-i, i, i)
		s[2][i] = Cell(i, Size-1-i, i)
		s[3][i] = Cell(i, i, Size-1-i)
	}
	for _, l := range s {
		addLine(l)
	}
	if len(lines) != NumLines {
		panic(fmt.Sprintf("ttt: built %d lines, want %d", len(lines), NumLines))
	}
	return lines
}

// Board is a 4x4x4 position as two occupancy bitboards.
type Board struct {
	XBits uint64 // cells occupied by X
	OBits uint64 // cells occupied by O
}

// Occupied returns the combined occupancy mask.
func (b Board) Occupied() uint64 { return b.XBits | b.OBits }

// MoveCount returns the number of stones on the board.
func (b Board) MoveCount() int { return bits.OnesCount64(b.Occupied()) }

// Play returns the position after player p claims cell c. It panics if the
// cell is occupied (programmer error: move generation must filter).
func (b Board) Play(c int, p Player) Board {
	bit := uint64(1) << uint(c)
	if b.Occupied()&bit != 0 {
		panic(fmt.Sprintf("ttt: cell %d already occupied", c))
	}
	if p == X {
		b.XBits |= bit
	} else {
		b.OBits |= bit
	}
	return b
}

// Winner returns the winning player, or 0 if neither has a complete line.
func (b Board) Winner() Player {
	for _, m := range lineMasks {
		if b.XBits&m == m {
			return X
		}
		if b.OBits&m == m {
			return O
		}
	}
	return 0
}

// Moves appends the indices of all empty cells to dst and returns it.
func (b Board) Moves(dst []int) []int {
	free := ^b.Occupied()
	for free != 0 {
		c := bits.TrailingZeros64(free)
		dst = append(dst, c)
		free &= free - 1
	}
	return dst
}

// evalWeights scores a line with n same-player stones (and no opposing
// stones). A complete line dominates everything else.
var evalWeights = [Size + 1]int{0, 1, 4, 32, WinScore}

// WinScore is the evaluation magnitude of a completed line.
const WinScore = 1 << 20

// Eval returns a static evaluation from X's point of view: the sum over
// lines open for exactly one player of a weight growing with the stones
// already placed. This is the standard 3D tic-tac-toe heuristic: it
// rewards building unblocked lines.
func (b Board) Eval() int {
	score := 0
	for _, m := range lineMasks {
		score += lineScore(bits.OnesCount64(b.XBits&m), bits.OnesCount64(b.OBits&m))
	}
	return score
}

// lineScore is the Eval term of a line holding nx X and no O stones: the
// weight of the stones on it if only one player has any, signed for that
// player, and 0 otherwise.
func lineScore(nx, no int) int {
	switch {
	case no == 0 && nx > 0:
		return evalWeights[nx]
	case nx == 0 && no > 0:
		return -evalWeights[no]
	}
	return 0
}

// lineMove is what one stone does to a line: the change in the line's
// Eval term, and whether the stone completes the line.
type lineMove struct {
	delta int32
	wins  bool
}

// lineMoves[s][nx][no] is the lineMove of a stone of X (s = 0) or O
// (s = 1) on a line holding nx X and no O stones. A line with a free
// cell holds at most Size-1 stones, so both counts index below Size.
var lineMoves = buildLineMoves()

func buildLineMoves() (out [2][Size][Size]lineMove) {
	for nx := 0; nx < Size; nx++ {
		for no := 0; nx+no < Size; no++ {
			before := lineScore(nx, no)
			out[0][nx][no] = lineMove{int32(lineScore(nx+1, no) - before), nx == Size-1}
			out[1][nx][no] = lineMove{int32(lineScore(nx, no+1) - before), no == Size-1}
		}
	}
	return out
}

// cellLines lists, for each cell, the indices into lineMasks of the 4 or
// 7 lines through it: the only lines whose score or completion a move
// there can change.
var cellLines = buildCellLines()

func buildCellLines() (out [Cells][]uint8) {
	for l, m := range lineMasks {
		for c := 0; c < Cells; c++ {
			if m&(1<<uint(c)) != 0 {
				out[c] = append(out[c], uint8(l))
			}
		}
	}
	return out
}

// moveTable scores every move of one side on one position: per line, the
// change a stone of that side makes to Eval, and the free cells where
// such a stone completes a line. An expansion builds it once and then
// scores each child from the entries of the lines through its cell.
type moveTable struct {
	delta [NumLines]int32
	wins  uint64 // free cells where side's stone completes a line
	side  Player
}

// moveTable builds p's move table on b. No line of b may be complete:
// only a position nobody has won is played on, so each line's counts
// stay below Size.
func (b Board) moveTable(p Player) (t moveTable) {
	moves := &lineMoves[0]
	if p == O {
		moves = &lineMoves[1]
	}
	free := ^b.Occupied()
	for l, m := range lineMasks {
		e := moves[bits.OnesCount64(b.XBits&m)&(Size-1)][bits.OnesCount64(b.OBits&m)&(Size-1)]
		t.delta[l] = e.delta
		if e.wins {
			t.wins |= m & free
		}
	}
	t.side = p
	return t
}

// play returns the position after the table's side claims cell c of b,
// the board the table was built on, with its Eval and Winner derived
// from b's Eval, eval. Cell c must be free.
func (t *moveTable) play(b Board, c int, eval int32) (child Board, childEval int32, winner Player) {
	bit := uint64(1) << uint(c)
	if t.side == X {
		b.XBits |= bit
	} else {
		b.OBits |= bit
	}
	for _, l := range cellLines[c] {
		eval += t.delta[l]
	}
	if t.wins&bit != 0 {
		winner = t.side
	}
	return b, eval, winner
}

// String renders the board layer by layer (z slices).
func (b Board) String() string {
	var sb strings.Builder
	for z := 0; z < Size; z++ {
		fmt.Fprintf(&sb, "z=%d\n", z)
		for y := 0; y < Size; y++ {
			for x := 0; x < Size; x++ {
				bit := uint64(1) << uint(Cell(x, y, z))
				switch {
				case b.XBits&bit != 0:
					sb.WriteByte('X')
				case b.OBits&bit != 0:
					sb.WriteByte('O')
				default:
					sb.WriteByte('.')
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// LineMasks exposes a copy of the winning-line masks for tests and tools.
func LineMasks() []uint64 {
	out := make([]uint64, len(lineMasks))
	copy(out, lineMasks[:])
	return out
}
