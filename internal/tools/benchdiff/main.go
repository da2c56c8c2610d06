// Command benchdiff is the benchmark-regression gate: it parses `go test
// -bench` output, compares each benchmark's ns/op against a committed
// baseline (BENCH_BASELINE.json at the repo root), and fails when the
// geometric mean of the current/baseline ratios regresses past a
// threshold.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x . > bench.out
//	go run ./internal/tools/benchdiff -baseline BENCH_BASELINE.json bench.out
//	go run ./internal/tools/benchdiff -baseline BENCH_BASELINE.json -update bench.out
//
// The gate is the geomean, not any single benchmark: wall-clock noise on
// shared CI runners swings individual benchmarks far more than 15%, but a
// uniform shift of the whole suite is a real regression. Per-benchmark
// ratios are still printed (worst first) so a regression is attributable.
// A baseline benchmark missing from the current run fails the gate, so
// a deleted or renamed benchmark cannot drop out of it unnoticed;
// benchmarks only in the current run are reported and skipped. -update
// rewrites the baseline from the current run (do this whenever a change
// intentionally moves performance, adds or removes benchmarks, and commit
// the result).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against (or write with -update)")
	update := fs.Bool("update", false, "rewrite the baseline from the current run instead of comparing")
	threshold := fs.Float64("threshold", 15, "allowed geomean regression, percent")
	minNs := fs.Float64("min-ns", 0, "exclude benchmarks whose baseline ns/op is below this from the geomean (at -benchtime=1x a sub-µs benchmark times one iteration — timer noise, not signal); excluded rows are still reported")
	keepCPU := fs.String("keep-cpu", "", "regexp of benchmark names whose -N GOMAXPROCS suffix is significant (they came from a -cpu scaling run) and must not be stripped; other names still get a common runner-shape suffix stripped")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var keep *regexp.Regexp
	if *keepCPU != "" {
		var err error
		if keep, err = regexp.Compile(*keepCPU); err != nil {
			return fmt.Errorf("bad -keep-cpu pattern: %w", err)
		}
	}
	in := os.Stdin
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one input file, got %v", fs.Args())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	current, err := parseBench(in, keep)
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}
	if *update {
		if err := writeBaseline(*baselinePath, current); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchdiff: baseline %s updated with %d benchmarks\n", *baselinePath, len(current))
		return nil
	}
	base, err := readBaseline(*baselinePath)
	if err != nil {
		return fmt.Errorf("%w (run with -update to create the baseline)", err)
	}
	rep := compare(base.Benchmarks, current, *minNs)
	fmt.Fprint(out, rep.render(*threshold))
	if len(rep.deltas) == 0 {
		// A gate that compares nothing must not pass: a suite rename (or a
		// mis-parsed run) would otherwise disable the check silently.
		return fmt.Errorf("no benchmarks in common with the baseline — re-record it with -update")
	}
	if len(rep.onlyBase) > 0 {
		return fmt.Errorf("%d baseline benchmarks missing from this run (%s) — restore them or re-record the baseline with -update",
			len(rep.onlyBase), strings.Join(rep.onlyBase, ", "))
	}
	if rep.geomeanRatio() > 1+*threshold/100 {
		return fmt.Errorf("geomean regression %.1f%% exceeds the %.0f%% gate",
			(rep.geomeanRatio()-1)*100, *threshold)
	}
	return nil
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkBatchSteal/loop-8   125  9371 ns/op  42.0 extra/metric
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+(?:e[+-]?[0-9]+)?) ns/op`)

// gomaxSuffix matches a candidate -GOMAXPROCS name suffix.
var gomaxSuffix = regexp.MustCompile(`-(\d+)$`)

// stripGomaxprocs removes the -N GOMAXPROCS suffix so baselines survive
// runner shape. The suffix is only present when GOMAXPROCS != 1 and is
// identical on every line of a run, while sub-benchmark numeric suffixes
// (batch-512) vary — so it is stripped exactly when every parsed name
// carries the same trailing -N.
//
// Names matching keep are per-cpu scaling entries from a -cpu run: their
// suffix IS the data point (BenchmarkGetHotPath-32 at GOMAXPROCS=32 is a
// different measurement from -2), so they pass through untouched and do
// not participate in the common-suffix determination. Without this
// partition one -cpu sweep in the file would disable stripping for the
// whole run, and every ordinary baseline entry would miss on runners
// with a different core count.
func stripGomaxprocs(vals map[string][]float64, keep *regexp.Regexp) map[string][]float64 {
	kept := map[string][]float64{}
	strippable := map[string][]float64{}
	for name, vs := range vals {
		if keep != nil && keep.MatchString(name) {
			kept[name] = vs
		} else {
			strippable[name] = vs
		}
	}
	common := ""
	for name := range strippable {
		m := gomaxSuffix.FindStringSubmatch(name)
		if m == nil {
			common = ""
			break
		}
		if common == "" {
			common = m[1]
		} else if common != m[1] {
			common = ""
			break
		}
	}
	if common == "" {
		return vals
	}
	out := make(map[string][]float64, len(vals))
	for name, vs := range strippable {
		short := strings.TrimSuffix(name, "-"+common)
		out[short] = append(out[short], vs...)
	}
	for name, vs := range kept {
		out[name] = append(out[name], vs...)
	}
	return out
}

// parseBench extracts ns/op per benchmark from `go test -bench` output.
// Repeated runs of one benchmark (e.g. -count > 1) are reduced to their
// geometric mean, matching the cross-benchmark reduction. keep (may be
// nil) marks per-cpu scaling entries whose GOMAXPROCS suffix survives —
// see stripGomaxprocs.
func parseBench(r io.Reader, keep *regexp.Regexp) (map[string]float64, error) {
	vals := map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil || ns <= 0 {
			continue // a zero-cost line carries no signal and breaks the geomean
		}
		vals[m[1]] = append(vals[m[1]], ns)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	vals = stripGomaxprocs(vals, keep)
	out := make(map[string]float64, len(vals))
	for name, vs := range vals {
		if len(vs) == 1 {
			out[name] = vs[0] // exact: no reduction to round-trip through logs
			continue
		}
		s := 0.0
		for _, v := range vs {
			s += math.Log(v)
		}
		out[name] = math.Exp(s / float64(len(vs)))
	}
	return out, nil
}

// baseline is the committed BENCH_BASELINE.json shape.
type baseline struct {
	// Note documents the file for humans reading the diff.
	Note string `json:"note"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to its
	// baseline ns/op.
	Benchmarks map[string]float64 `json:"benchmarks"`
}

func readBaseline(path string) (baseline, error) {
	var b baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return b, fmt.Errorf("%s holds no benchmarks", path)
	}
	return b, nil
}

func writeBaseline(path string, current map[string]float64) error {
	b := baseline{
		Note:       "ns/op per benchmark (geomean across repeats, GOMAXPROCS suffix stripped); regenerate with `make bench-baseline`.",
		Benchmarks: current,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// delta is one compared benchmark.
type delta struct {
	name      string
	base, cur float64
	ratio     float64
}

// report is the outcome of one comparison.
type report struct {
	deltas      []delta  // gated benchmarks, worst ratio first
	tooSmall    []string // common but below the noise floor: not gated
	onlyBase    []string // in the baseline, missing from the run
	onlyCurrent []string // in the run, missing from the baseline
}

// compare joins baseline and current results by name; benchmarks whose
// baseline ns/op is below minNs are excluded from the gated set.
func compare(base, current map[string]float64, minNs float64) report {
	var rep report
	for name, b := range base {
		c, ok := current[name]
		if !ok {
			rep.onlyBase = append(rep.onlyBase, name)
			continue
		}
		if b < minNs {
			rep.tooSmall = append(rep.tooSmall, name)
			continue
		}
		rep.deltas = append(rep.deltas, delta{name: name, base: b, cur: c, ratio: c / b})
	}
	for name := range current {
		if _, ok := base[name]; !ok {
			rep.onlyCurrent = append(rep.onlyCurrent, name)
		}
	}
	sort.Slice(rep.deltas, func(i, j int) bool { return rep.deltas[i].ratio > rep.deltas[j].ratio })
	sort.Strings(rep.tooSmall)
	sort.Strings(rep.onlyBase)
	sort.Strings(rep.onlyCurrent)
	return rep
}

// geomeanRatio reduces the per-benchmark current/baseline ratios to their
// geometric mean (1.0 with no common benchmarks).
func (r report) geomeanRatio() float64 {
	if len(r.deltas) == 0 {
		return 1
	}
	s := 0.0
	for _, d := range r.deltas {
		s += math.Log(d.ratio)
	}
	return math.Exp(s / float64(len(r.deltas)))
}

// render formats the comparison: the geomean verdict line, the worst
// per-benchmark ratios, and any membership drift.
func (r report) render(threshold float64) string {
	var b strings.Builder
	g := r.geomeanRatio()
	fmt.Fprintf(&b, "benchdiff: geomean ratio %.4f over %d benchmarks (gate %.4f)\n",
		g, len(r.deltas), 1+threshold/100)
	for i, d := range r.deltas {
		if i >= 10 && d.ratio <= 1.0 {
			fmt.Fprintf(&b, "  ... %d more at or below baseline\n", len(r.deltas)-i)
			break
		}
		fmt.Fprintf(&b, "  %-55s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
			d.name, d.base, d.cur, (d.ratio-1)*100)
	}
	if len(r.tooSmall) > 0 {
		fmt.Fprintf(&b, "  below the noise floor, not gated: %s\n", strings.Join(r.tooSmall, ", "))
	}
	for _, name := range r.onlyBase {
		fmt.Fprintf(&b, "  missing from this run: %s\n", name)
	}
	for _, name := range r.onlyCurrent {
		fmt.Fprintf(&b, "  new benchmark, not in baseline (skipped; -update to adopt): %s\n", name)
	}
	return b.String()
}
