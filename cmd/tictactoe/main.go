// Command tictactoe runs the paper's application study directly: parallel
// 3D tic-tac-toe minimax with a selectable work list, in either simulated
// (virtual-time Butterfly) or real (goroutines + wall clock) mode.
//
// Usage:
//
//	tictactoe -mode sim  -impl pool-linear -procs 16 -depth 3
//	tictactoe -mode real -impl global-stack -procs 8 -depth 2
//	tictactoe -mode play -depth 2       # print the engine's opening move
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"pools/internal/baseline"
	"pools/internal/core"
	"pools/internal/harness"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/ttt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tictactoe:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tictactoe", flag.ContinueOnError)
	mode := fs.String("mode", "sim", "sim | real | play")
	impl := fs.String("impl", "pool-linear", "global-stack | pool-linear | pool-random | pool-tree")
	procs := fs.Int("procs", 16, "processors (sim) / workers (real)")
	depth := fs.Int("depth", 3, "expansion depth (3 = 249,984 positions)")
	seed := fs.Uint64("seed", 1989, "seed for the random search algorithm")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *depth < 1 && *mode != "play" {
		return fmt.Errorf("-depth %d: the parallel engine needs depth >= 1", *depth)
	}

	var board ttt.Board
	switch *mode {
	case "play":
		start := time.Now()
		move, value := ttt.BestMove(board, ttt.X, *depth)
		x, y, z := ttt.Coords(move)
		fmt.Printf("best opening move for X at depth %d: cell %d (x=%d y=%d z=%d), value %d [%v]\n",
			*depth, move, x, y, z, value, time.Since(start).Round(time.Millisecond))
		return nil

	case "sim":
		ai, err := parseImpl(*impl)
		if err != nil {
			return err
		}
		rows := harness.App(harness.Config{Seed: *seed}, harness.DefaultAppCosts(), *depth,
			[]int{1, *procs}, []harness.AppImpl{ai})
		fmt.Println(harness.RenderApp(rows))
		return nil

	case "real":
		return runReal(*impl, *procs, *depth, *seed, board)

	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

func parseImpl(name string) (harness.AppImpl, error) {
	for _, i := range harness.AppImpls() {
		if i.String() == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown implementation %q", name)
}

// poolSource adapts a core.Handle to ttt.Source.
type poolSource struct{ h *core.Handle[*ttt.Node] }

func (p poolSource) Put(n *ttt.Node)        { p.h.Put(n) }
func (p poolSource) Get() (*ttt.Node, bool) { return p.h.Get() }

// runReal executes the expansion with real goroutines and reports wall
// time. On a single-core host this measures overhead, not speedup; the
// simulator mode reproduces the paper's speedup figures (see
// docs/ARCHITECTURE.md on why the evaluation runs simulated).
func runReal(impl string, workers, depth int, seed uint64, board ttt.Board) error {
	wantValue, wantLeaves := ttt.Minimax(board, ttt.X, depth)
	start := time.Now()
	var eng *ttt.Engine
	sources := make([]ttt.Source, workers)
	var cleanup func(i int)

	switch impl {
	case "global-stack":
		stack := baseline.NewGlobalStack[*ttt.Node]()
		for i := range sources {
			sources[i] = stack
		}
		cleanup = func(int) {}
		eng = ttt.NewEngine(board, ttt.X, depth, stack)
	case "pool-linear", "pool-random", "pool-tree":
		kind := map[string]search.Kind{
			"pool-linear": search.Linear, "pool-random": search.Random, "pool-tree": search.Tree,
		}[impl]
		pool, err := core.New[*ttt.Node](core.Options{Segments: workers, Policies: policy.Set{Order: kind}, Seed: seed})
		if err != nil {
			return err
		}
		for i := range sources {
			pool.Handle(i).Register()
			sources[i] = poolSource{pool.Handle(i)}
		}
		cleanup = func(i int) { pool.Handle(i).Close() }
		eng = ttt.NewEngine(board, ttt.X, depth, sources[0])
	default:
		return fmt.Errorf("unknown implementation %q", impl)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for !eng.Done() {
				eng.Step(sources[id])
			}
			cleanup(id)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	status := "ok"
	if eng.RootValue() != wantValue || eng.Evaluated() != wantLeaves {
		status = "MISMATCH vs sequential minimax"
	}
	fmt.Printf("impl=%s workers=%d depth=%d positions=%d value=%d wall=%v GOMAXPROCS=%d [%s]\n",
		impl, workers, depth, eng.Evaluated(), eng.RootValue(),
		elapsed.Round(time.Millisecond), runtime.GOMAXPROCS(0), status)
	return nil
}
