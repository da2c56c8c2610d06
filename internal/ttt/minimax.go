package ttt

import "math"

// Minimax returns the depth-limited minimax value of the position from X's
// point of view, with toMove next to play, expanding the full game tree
// (no pruning — the paper's program places every generated position in the
// work list, so the sequential reference must visit the same tree).
// It also returns the number of leaf positions evaluated, which for
// (empty board, X, depth 3) is the paper's 249,984. It scores every leaf
// with the full-scan Board.Eval and Board.Winner, independently of the
// Engine's incremental scoring, and is the reference the Engine is tested
// against.
func Minimax(b Board, toMove Player, depth int) (value int, leaves int64) {
	if w := b.Winner(); w != 0 {
		return int(w) * WinScore, 1
	}
	if depth == 0 {
		return b.Eval(), 1
	}
	moves := b.Moves(make([]int, 0, Cells))
	if len(moves) == 0 {
		return b.Eval(), 1
	}
	best := math.MinInt
	if toMove == O {
		best = math.MaxInt
	}
	var total int64
	for _, m := range moves {
		v, n := Minimax(b.Play(m, toMove), toMove.Opponent(), depth-1)
		total += n
		if toMove == X {
			if v > best {
				best = v
			}
		} else if v < best {
			best = v
		}
	}
	return best, total
}

// BestMove returns a move for toMove maximizing (or minimizing, for O) the
// depth-limited minimax value, along with that value. It returns -1 on a
// full or won board.
func BestMove(b Board, toMove Player, depth int) (move, value int) {
	if b.Winner() != 0 {
		return -1, int(b.Winner()) * WinScore
	}
	moves := b.Moves(make([]int, 0, Cells))
	if len(moves) == 0 {
		return -1, b.Eval()
	}
	best := math.MinInt
	if toMove == O {
		best = math.MaxInt
	}
	bestMove := moves[0]
	for _, m := range moves {
		v, _ := Minimax(b.Play(m, toMove), toMove.Opponent(), depth-1)
		if toMove == X {
			if v > best {
				best, bestMove = v, m
			}
		} else if v < best {
			best, bestMove = v, m
		}
	}
	return bestMove, best
}

// PositionCount returns the number of leaf positions a full expansion to
// the given depth examines from a position with free empty cells:
// free * (free-1) * ... * (free-depth+1).
func PositionCount(free, depth int) int64 {
	n := int64(1)
	for i := 0; i < depth; i++ {
		n *= int64(free - i)
	}
	return n
}
