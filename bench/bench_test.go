package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"pools/internal/ttt"
)

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclaredNamesMatch(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), emitted %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd)
	check("per_layer", d.PerLayer, perLayer)
}

// TestWorkloadsSmoke runs every workload untraced and traced with tiny
// windows and checks correctness and the emitted metric names. It
// asserts no speed: only counts and ratios that follow from the traffic
// itself.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.json")
				res, _, err := execute(config{
					workload: name,
					seed:     7,
					windows:  3,
					window:   50 * time.Millisecond,
					warmup:   10 * time.Millisecond,
					depth:    2,
					setups:   3,
					traced:   traced,
					spans:    spans,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
					}
				}
				if !traced {
					for _, s := range endToEnd {
						if res.Metrics[s.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", s.name, res.Metrics[s.name].Value)
						}
					}
					return
				}
				checkSpansFile(t, spans)
				v := func(n string) float64 { return res.Metrics[n].Value }
				switch name {
				case "forkjoin", "observed":
					if v("engine.search_frac") != 0 || v("core.local_hit_frac") != 1 {
						t.Errorf("owner-only traffic searched: search_frac=%v local_hit_frac=%v", v("engine.search_frac"), v("core.local_hit_frac"))
					}
				case "handoff":
					if v("engine.search_frac") <= 0 || v("engine.stolen_per_steal") < 1 {
						t.Errorf("handoff consumer never stole: search_frac=%v stolen_per_steal=%v", v("engine.search_frac"), v("engine.stolen_per_steal"))
					}
				case "tasktree":
					if v("ttt.app_frac") <= 0 {
						t.Errorf("tasktree recorded no task self time")
					}
				}
			})
		}
	}
}

func checkSpansFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("spans file is not JSON: %v", err)
	}
	spans := 0
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			spans++
			if e.Dur < 0 {
				t.Errorf("span %s has negative duration", e.Name)
			}
		}
	}
	if spans == 0 {
		t.Error("spans file holds no spans")
	}
}

func TestSeqWindow(t *testing.T) {
	s := seqWindow{low: 1}
	for _, v := range []uint64{2, 1, 4, 3} {
		if !s.mark(v) {
			t.Fatalf("mark(%d) rejected", v)
		}
	}
	if s.low != 5 {
		t.Fatalf("low = %d, want 5", s.low)
	}
	if s.mark(3) {
		t.Error("duplicate below low accepted")
	}
	if !s.mark(7) || s.mark(7) {
		t.Error("duplicate above low accepted")
	}
	if s.mark(5 + seqSpan) {
		t.Error("number beyond the window accepted")
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*1000
		if got < want*0.95 || got > want*1.05 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
	for _, v := range []int64{0, 31, 32, 33, 1000, 1 << 30} {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d outside its bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

// TestTaskTreeExpected pins the tasktree check values: the leaf count of
// the paper's depth-4 search and the root's minimax value.
func TestTaskTreeExpected(t *testing.T) {
	if n := ttt.PositionCount(ttt.Cells, 4); n != 15_249_024 {
		t.Fatalf("PositionCount(64, 4) = %d", n)
	}
	if testing.Short() {
		t.Skip("sequential depth-4 minimax takes seconds")
	}
	v, leaves := ttt.Minimax(ttt.Board{}, ttt.X, 4)
	if v != paperRoot || leaves != 15_249_024 {
		t.Fatalf("Minimax(empty, X, 4) = %d over %d leaves, want %d over 15249024", v, leaves, paperRoot)
	}
}
