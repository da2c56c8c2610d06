// Command bench is the pool's end-to-end benchmark. It drives the pool as
// its users do — one process, GOMAXPROCS=2, two worker goroutines in a
// closed loop — through public calls only, on four workloads:
//
//	forkjoin  owner-path Put/Get batches, no steals possible
//	observed  forkjoin traffic with stats, topology and flight recorder on
//	handoff   producer/consumer: every element is stolen
//	tasktree  the paper's parallel 4x4x4 tic-tac-toe minimax (depth 4)
//
// Throughput and latency are medians over half-second windows. Each
// window of the element workloads runs on a pool of its own after a
// short warm-up; tasktree's windows cover its back-to-back searches.
// Every run checks the pool's outputs and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. With -trace 1 it
// reports per-layer metrics from spans around every pool call instead,
// and writes the spans as Chrome-trace JSON. Run it with
//
//	bash bench/run.sh -workload handoff -seed 7 -seconds 20 -trace 0
//
// or, for all four workloads in fresh processes, without -workload. See
// bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func cli(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: forkjoin, observed, handoff or tasktree (empty: all, each in its own process)")
	seed := fs.Uint64("seed", 1989, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds, in half-second windows (BENCHMARK.json runs 20)")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
	spans := fs.String("spans", "", "Chrome-trace file of a traced run (default .bench_build/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1, no arguments (got %v)", args)
	}
	if *workload == "" {
		return runAll(out, *seed, *seconds, *trace)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		windows:  2 * *seconds,
		window:   500 * time.Millisecond,
		warmup:   50 * time.Millisecond,
		depth:    4,
		setups:   21,
		traced:   *trace == 1,
		spans:    *spans,
	}
	if cfg.traced && cfg.spans == "" {
		cfg.spans = ".bench_build/spans-" + cfg.workload + ".json"
	}
	res, note, err := execute(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "machine: nproc=%d GOMAXPROCS=2 go=%s %s/%s\n", runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, *seconds, *trace)
	fmt.Fprintln(out, note)
	if cfg.traced {
		fmt.Fprintln(out, "spans file:", cfg.spans)
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	for _, s := range specs {
		m := res.Metrics[s.name]
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", s.name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their check", cfg.workload, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload in a fresh child process, so each starts
// with its own heap and GC state.
func runAll(out io.Writer, seed uint64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, name := range workloadNames {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(workloadNames))
	}
	return nil
}
