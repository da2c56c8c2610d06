// Command poolbench regenerates every table and figure in the paper's
// evaluation section on the simulated Butterfly.
//
// Usage:
//
//	poolbench -exp fig2                 # one experiment
//	poolbench -exp all                  # everything (docs/EXPERIMENTS.md catalog)
//	poolbench -exp fig7 -trials 3       # faster, noisier
//	poolbench -exp app -depth 2         # smaller game tree
//	poolbench -exp policy -csv          # steal-policy sweep + CSV
//	poolbench -exp locality -csv        # victim orders under clustered delays
//	poolbench -exp hier -csv            # hierarchical cluster-first stealing
//	poolbench -exp keyedloc -csv        # keyed sweep orders on clusters
//	poolbench -exp trace -csv           # controller trajectories + event density
//	poolbench -exp tenants -csv         # open-loop multi-tenant tail latency
//	poolbench -exp chaos -csv           # failure injection: throughput dip & recovery
//	poolbench -trace out.json           # flight-recorder dump (chrome://tracing)
//	poolbench -debug-addr :6060         # live run with pprof/expvar//trace
//
// Experiments: the entries of harness.Experiments, in order, plus all;
// poolbench -h lists their names.
// See docs/EXPERIMENTS.md for what each reproduces and its expected shape,
// and docs/OBSERVABILITY.md for the flight recorder and the live
// introspection endpoints.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pools/internal/harness"
	"pools/internal/introspect"
	"pools/internal/numa"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/trace"
	"pools/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "poolbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("poolbench", flag.ContinueOnError)
	var names []string
	for _, e := range harness.Experiments {
		names = append(names, e.Name)
	}
	names = append(names, "all")
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, "|"))
	trials := fs.Int("trials", workload.PaperTrials, "trials averaged per data point")
	seed := fs.Uint64("seed", 1989, "master seed")
	ops := fs.Int("ops", workload.PaperTotalOps, "operations per trial")
	fill := fs.Int("fill", 0, "initial pool elements (0 = experiment default: the paper's 320, except the thin-fill tenants sweep)")
	procs := fs.Int("procs", workload.PaperProcs, "processors/segments")
	depth := fs.Int("depth", 3, "tic-tac-toe expansion depth (3 = paper's 249,984 positions)")
	csv := fs.Bool("csv", false, "append each experiment's machine-readable CSV, where it has one")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON dump of a seeded flight-recorder run to this file and exit")
	debugAddr := fs.String("debug-addr", "", "serve live introspection (pprof, expvar, /stats, /trace) on this address while a wall-clock trial runs, then exit")
	serveFor := fs.Duration("serve", 0, "with -debug-addr: keep serving this long after the run completes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := harness.Config{Trials: *trials, Seed: *seed, Ops: *ops, Fill: *fill, Procs: *procs, Depth: *depth}

	if *tracePath != "" {
		return writeTrace(cfg, *tracePath, out)
	}
	if *debugAddr != "" {
		return liveServe(cfg, *debugAddr, *serveFor, out)
	}

	want := strings.ToLower(*exp)
	ran := false
	for _, e := range harness.Experiments {
		if want != "all" && want != e.Name {
			continue
		}
		ran = true
		text, csvText := e.Run(cfg)
		if *csv && csvText != "" {
			text += "\n" + csvText
		}
		fmt.Fprintf(out, "## %s — %s\n\n%s\n", e.Name, e.Title, text)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", *exp, strings.Join(names, ", "))
	}
	return nil
}

// writeTrace runs the seeded flight-recorder trial (the same clustered
// burst configuration as -exp trace) and writes its Chrome trace-event
// JSON to path, for chrome://tracing / Perfetto. Deterministic for a
// given -seed/-procs/-ops, which is what lets CI validate the dump
// against a schema (make trace-smoke).
func writeTrace(cfg harness.Config, path string, out io.Writer) error {
	res := harness.EventTraceRun(cfg, search.Tree, 5, 1)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.ChromeJSON(f, res.Timelines); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	events := 0
	for _, tl := range res.Timelines {
		events += len(tl.Events)
	}
	fmt.Fprintf(out, "wrote %s: %d handles, %d events, %d dropped (load in chrome://tracing or Perfetto)\n",
		path, len(res.Timelines), events, res.Dropped)
	return nil
}

// liveServe starts one wall-clock trial on the real pool with the flight
// recorder attached, serves the introspection endpoints while it runs,
// and reports the final stats. The bound address is printed first so
// scripts can pass :0 and scrape the real port.
func liveServe(cfg harness.Config, addr string, keep time.Duration, out io.Writer) error {
	fill := cfg.Fill
	if fill == 0 {
		fill = workload.PaperInitialElements
	}
	live := harness.StartLive(harness.RealRunConfig{
		Workload: workload.Config{
			Procs:           cfg.Procs,
			Model:           workload.RandomOps,
			AddFraction:     0.5,
			TotalOps:        cfg.Ops,
			InitialElements: fill,
		},
		Policies: policy.Set{Order: search.Tree},
		Seed:     cfg.Seed,
		Topology: numa.Clusters{Size: harness.LocalityClusterSize},
		TraceBuf: harness.EventTraceBuf,
	})
	srv, err := introspect.Serve(addr, live)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(out, "introspection: http://%s\n", srv.Addr)
	res, err := live.Result()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "run complete in %v: %s\n", res.Elapsed.Round(time.Millisecond), res.Stats.Summary())
	if keep > 0 {
		fmt.Fprintf(out, "serving for another %v\n", keep)
		time.Sleep(keep)
	}
	return nil
}
