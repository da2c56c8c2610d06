package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: pools
BenchmarkPoolLocalPutGet/linear-8         	 4000000	       311.5 ns/op
BenchmarkPoolLocalPutGet/linear-8         	 4100000	       280.1 ns/op
BenchmarkBatchPutGet/batch-8-8            	 1000000	      1200 ns/op	         150.0 ns/element
BenchmarkFig2-8                           	       1	 250000000 ns/op	        12.5 sparse20%-ms/op
PASS
ok  	pools	3.021s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	// Repeats reduce to their geomean; the -8 suffix is stripped.
	want := math.Sqrt(311.5 * 280.1)
	if v := got["BenchmarkPoolLocalPutGet/linear"]; math.Abs(v-want) > 1e-9 {
		t.Errorf("repeat geomean = %v, want %v", v, want)
	}
	if v := got["BenchmarkBatchPutGet/batch-8"]; v != 1200 {
		t.Errorf("batch-8 ns/op = %v, want 1200 (the batch size must survive suffix stripping)", v)
	}
	if v := got["BenchmarkFig2"]; v != 250000000 {
		t.Errorf("Fig2 ns/op = %v", v)
	}
}

// TestParseBenchGomaxprocsOne covers a single-core run: Go appends no
// GOMAXPROCS suffix, so sub-benchmark numeric suffixes must survive.
func TestParseBenchGomaxprocsOne(t *testing.T) {
	in := `BenchmarkBatchPutGet/batch-8     	 1000	      1200 ns/op
BenchmarkBatchPutGet/batch-512   	  100	      9000 ns/op
BenchmarkFig2                    	    1	 250000000 ns/op
`
	got, err := parseBench(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BenchmarkBatchPutGet/batch-8", "BenchmarkBatchPutGet/batch-512", "BenchmarkFig2"} {
		if _, ok := got[want]; !ok {
			t.Errorf("name %q lost its sub-benchmark suffix: %v", want, got)
		}
	}
}

// TestParseBenchKeepCPU covers a file mixing an ordinary run (uniform
// runner-shape suffix, stripped) with a -cpu scaling sweep (per-cpu
// suffixes that ARE the measurement, kept): without the keep partition
// the varied scaling suffixes would disable stripping for the whole
// file, and every ordinary entry would miss the baseline on a runner
// with a different core count.
func TestParseBenchKeepCPU(t *testing.T) {
	in := `BenchmarkPoolLocalPutGet/linear-4  	 4000000	       311.5 ns/op
BenchmarkFig2-4                    	       1	 250000000 ns/op
BenchmarkGetHotPath-2              	 4000000	       300.0 ns/op
BenchmarkGetHotPath-4              	 4000000	       310.0 ns/op
BenchmarkGetHotPath-32             	 4000000	       460.0 ns/op
BenchmarkPoolContended/linear-16   	 1000000	      2100.0 ns/op
`
	keep := regexp.MustCompile(makefileKeepCPU(t))
	got, err := parseBench(strings.NewReader(in), keep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"BenchmarkPoolLocalPutGet/linear", // -4 stripped: runner shape
		"BenchmarkFig2",
		"BenchmarkGetHotPath-2", // per-cpu entries stay distinct
		"BenchmarkGetHotPath-4",
		"BenchmarkGetHotPath-32",
		"BenchmarkPoolContended/linear-16",
	} {
		if _, ok := got[want]; !ok {
			t.Errorf("missing %q in parsed set %v", want, got)
		}
	}
	if len(got) != 6 {
		t.Errorf("parsed %d benchmarks, want 6: %v", len(got), got)
	}

	// Without -keep-cpu the mixed suffixes disable stripping entirely —
	// the pre-partition behavior the flag exists to fix.
	got, err = parseBench(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["BenchmarkPoolLocalPutGet/linear-4"]; !ok {
		t.Errorf("nil keep: expected stripping disabled by mixed suffixes, got %v", got)
	}
}

func TestCompareAndGeomean(t *testing.T) {
	base := map[string]float64{"A": 100, "B": 200, "Gone": 50}
	cur := map[string]float64{"A": 110, "B": 190, "New": 70}
	rep := compare(base, cur, 0)
	if len(rep.deltas) != 2 {
		t.Fatalf("compared %d benchmarks, want 2", len(rep.deltas))
	}
	if rep.deltas[0].name != "A" {
		t.Errorf("worst ratio first: got %q", rep.deltas[0].name)
	}
	want := math.Sqrt(1.10 * 0.95)
	if g := rep.geomeanRatio(); math.Abs(g-want) > 1e-9 {
		t.Errorf("geomean = %v, want %v", g, want)
	}
	if len(rep.onlyBase) != 1 || rep.onlyBase[0] != "Gone" {
		t.Errorf("onlyBase = %v", rep.onlyBase)
	}
	if len(rep.onlyCurrent) != 1 || rep.onlyCurrent[0] != "New" {
		t.Errorf("onlyCurrent = %v", rep.onlyCurrent)
	}
	out := rep.render(15)
	for _, wantStr := range []string{"geomean ratio", "missing from this run", "new benchmark"} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("render missing %q:\n%s", wantStr, out)
		}
	}
}

// TestCompareNoiseFloor checks sub-floor benchmarks leave the gated set
// (they cannot flap the geomean) but remain visible in the report.
func TestCompareNoiseFloor(t *testing.T) {
	base := map[string]float64{"Tiny": 300, "Big": 2e6}
	cur := map[string]float64{"Tiny": 900, "Big": 2e6} // Tiny 3x: timer noise at 1x
	rep := compare(base, cur, 100000)
	if len(rep.deltas) != 1 || rep.deltas[0].name != "Big" {
		t.Fatalf("gated set = %+v, want only Big", rep.deltas)
	}
	if g := rep.geomeanRatio(); g != 1 {
		t.Errorf("geomean = %v, want 1.0 with Tiny excluded", g)
	}
	if len(rep.tooSmall) != 1 || rep.tooSmall[0] != "Tiny" {
		t.Errorf("tooSmall = %v", rep.tooSmall)
	}
	if out := rep.render(15); !strings.Contains(out, "below the noise floor") {
		t.Errorf("render does not report the excluded benchmark:\n%s", out)
	}
}

func TestRunUpdateThenPassAndFail(t *testing.T) {
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "BENCH_BASELINE.json")
	benchPath := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(benchPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-baseline", baselinePath, "-update", benchPath}, &out); err != nil {
		t.Fatalf("update: %v", err)
	}
	if !strings.Contains(out.String(), "baseline") {
		t.Errorf("update output: %q", out.String())
	}

	// Same numbers against the fresh baseline: ratio 1.0, passes.
	out.Reset()
	if err := run([]string{"-baseline", baselinePath, benchPath}, &out); err != nil {
		t.Fatalf("identical run failed the gate: %v\n%s", err, out.String())
	}

	// A uniform 2x slowdown must fail the 15% gate.
	slow := strings.NewReplacer(
		"311.5 ns/op", "623.0 ns/op",
		"280.1 ns/op", "560.2 ns/op",
		"1200 ns/op", "2400 ns/op",
		"250000000 ns/op", "500000000 ns/op",
	).Replace(sampleBench)
	slowPath := filepath.Join(dir, "slow.out")
	if err := os.WriteFile(slowPath, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baselinePath, slowPath}, &out); err == nil {
		t.Fatalf("2x regression passed the gate:\n%s", out.String())
	}

	// A uniform 2x speedup passes (the gate is one-sided).
	fast := strings.NewReplacer(
		"311.5 ns/op", "155.7 ns/op",
		"280.1 ns/op", "140.0 ns/op",
		"1200 ns/op", "600 ns/op",
		"250000000 ns/op", "125000000 ns/op",
	).Replace(sampleBench)
	fastPath := filepath.Join(dir, "fast.out")
	if err := os.WriteFile(fastPath, []byte(fast), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", baselinePath, fastPath}, &out); err != nil {
		t.Fatalf("speedup failed the gate: %v", err)
	}
}

func TestRunMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(benchPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-baseline", filepath.Join(dir, "nope.json"), benchPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing baseline error = %v, want a hint to run -update", err)
	}
}

func TestRunNoCommonBenchmarksFails(t *testing.T) {
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "BENCH_BASELINE.json")
	if err := os.WriteFile(baselinePath,
		[]byte(`{"benchmarks":{"BenchmarkRenamedAway":100}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	benchPath := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(benchPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-baseline", baselinePath, benchPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "common") {
		t.Fatalf("zero-overlap comparison passed (err=%v): the gate is vacuous", err)
	}
}

func TestRunEmptyInput(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.out")
	if err := os.WriteFile(empty, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-baseline", "x.json", empty}, &out); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

// makefileKeepCPU returns the BENCH_KEEP_CPU pattern `make bench-check`
// passes to -keep-cpu, read from the repo's Makefile with make's `$$`
// escape undone, so this test checks the pattern the gate really uses.
func makefileKeepCPU(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "BENCH_KEEP_CPU ?= "); ok {
			return strings.ReplaceAll(strings.TrimSpace(v), "$$", "$")
		}
	}
	t.Fatal("no BENCH_KEEP_CPU line in the Makefile")
	return ""
}

// TestMakefileKeepCPUPattern replays the shape of a `make bench-check`
// output on a 2-CPU runner: the main suite, every row suffixed -2, then
// the scaling sweep at -cpu 1,2,4. Go prints the -cpu=1 rows with no
// suffix, so the keep pattern must match the bare BenchmarkGetHotPath
// too; otherwise that row lands in the strippable set, cancels suffix
// stripping for the whole run, and no main-suite row meets the baseline
// (benchdiff then exits with "no benchmarks in common").
func TestMakefileKeepCPUPattern(t *testing.T) {
	in := `BenchmarkAlgos-2                    	       1	 378000000 ns/op
BenchmarkBatchPutGet/batch-8-2      	 1000000	       616.0 ns/op
BenchmarkGetHotPath-2               	 4000000	       566.0 ns/op
BenchmarkGetHotPathTraced-2         	 4000000	       391.0 ns/op
BenchmarkPoolContended/linear-2     	 1000000	     14730.0 ns/op
BenchmarkGetHotPath                 	 4000000	       581.0 ns/op
BenchmarkGetHotPath-2               	 4000000	       566.0 ns/op
BenchmarkGetHotPath-4               	 4000000	       480.0 ns/op
BenchmarkPoolContended/linear       	 1000000	      6458.0 ns/op
BenchmarkPoolContended/linear-2     	 1000000	     14730.0 ns/op
BenchmarkPoolContended/linear-4     	 1000000	     13541.0 ns/op
`
	pattern := makefileKeepCPU(t)
	got, err := parseBench(strings.NewReader(in), regexp.MustCompile(pattern))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"BenchmarkAlgos", // runner-shape -2 stripped
		"BenchmarkBatchPutGet/batch-8",
		"BenchmarkGetHotPathTraced",
		"BenchmarkGetHotPath", // per-cpu entries stay distinct
		"BenchmarkGetHotPath-2",
		"BenchmarkGetHotPath-4",
		"BenchmarkPoolContended/linear",
		"BenchmarkPoolContended/linear-2",
		"BenchmarkPoolContended/linear-4",
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("pattern %q: missing %q in parsed set %v", pattern, name, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("pattern %q: parsed %d benchmarks, want %d: %v", pattern, len(got), len(want), got)
	}
}
