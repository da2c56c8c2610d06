package plot

import (
	"strings"
	"testing"
)

func TestLineChartContainsSeriesAndLabels(t *testing.T) {
	out := LineChart("Figure 2", "% adds", "avg op time", 60, 12, []Series{
		{Name: "random", X: []float64{0, 50, 100}, Y: []float64{40, 10, 5}},
		{Name: "producer/consumer", X: []float64{0, 50, 100}, Y: []float64{45, 20, 5}},
	})
	for _, want := range []string{"Figure 2", "% adds", "avg op time", "random", "producer/consumer", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Fatalf("chart too short: %d lines", len(lines))
	}
}

func TestLineChartEmpty(t *testing.T) {
	out := LineChart("empty", "x", "y", 40, 10, nil)
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("empty chart should say so:\n%s", out)
	}
}

func TestLineChartDegenerateRanges(t *testing.T) {
	// Single point and all-zero Y must not panic or divide by zero.
	out := LineChart("deg", "x", "y", 30, 8, []Series{
		{Name: "pt", X: []float64{5}, Y: []float64{0}},
	})
	if !strings.Contains(out, "pt") {
		t.Fatal("degenerate chart missing legend")
	}
}

func TestLineChartMonotoneDataPlacesHighLeft(t *testing.T) {
	// Decreasing series: the marker in the first data column should be in a
	// higher row than the marker in the last column.
	out := LineChart("mono", "x", "y", 40, 10, []Series{
		{Name: "s", X: []float64{0, 1}, Y: []float64{100, 0}, Marker: '*'},
	})
	lines := strings.Split(out, "\n")
	firstRow, lastRow := -1, -1
	for r, line := range lines {
		bar := strings.IndexByte(line, '|')
		if bar < 0 {
			continue
		}
		body := line[bar+1:]
		if i := strings.IndexByte(body, '*'); i >= 0 {
			if firstRow == -1 {
				firstRow = r
			}
			lastRow = r
		}
	}
	if firstRow == -1 || firstRow == lastRow {
		t.Fatalf("marker rows not found or flat:\n%s", out)
	}
}

func TestSegmentTraces(t *testing.T) {
	traces := [][]int64{
		{0, 1, 2, 3},
		{10, 10, 0, 0},
	}
	out := TracePanels("Figure 3", "seg", "elements", traces, map[int]bool{1: true}, "P", "C")
	if !strings.Contains(out, "seg  0 C") || !strings.Contains(out, "seg  1 P") {
		t.Fatalf("roles missing:\n%s", out)
	}
	if !strings.Contains(out, "max=10") {
		t.Fatalf("max annotation missing:\n%s", out)
	}
	if !strings.Contains(out, "@") {
		t.Fatalf("density ramp missing peak:\n%s", out)
	}
}

func TestSegmentTracesAllZero(t *testing.T) {
	out := TracePanels("z", "seg", "elements", [][]int64{{0, 0}}, nil, "P", "C")
	if !strings.Contains(out, "seg  0 C") {
		t.Fatalf("zero trace broken:\n%s", out)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"alg", "time"}, [][]string{
		{"linear", "12.5"},
		{"tree", "100.0"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("header/separator width mismatch:\n%s", out)
	}
	if !strings.Contains(lines[0], "alg") || !strings.Contains(lines[3], "tree") {
		t.Fatalf("table content wrong:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]string{"a", "b"}, [][]string{
		{"1", "2"},
		{"x,y", `say "hi"`},
	})
	want := "a,b\n1,2\n\"x,y\",\"say \"\"hi\"\"\"\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}
