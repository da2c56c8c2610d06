// Package plot renders the paper's figures as ASCII charts: multi-series
// line charts (Figures 2 and 7) and per-segment size trace panels
// (Figures 3-6). Output is plain text suitable for a terminal or for
// inclusion in EXPERIMENTS.md.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line on a chart.
type Series struct {
	Name   string
	X      []float64
	Y      []float64
	Marker byte // rune used for points; 0 defaults per-series
}

// defaultMarkers cycles when series don't specify one.
var defaultMarkers = []byte{'*', 'o', '+', 'x', '#', '@'}

// LineChart renders the series onto a width x height grid with axes and a
// legend. X and Y ranges are computed from the data (with a zero-based Y
// axis, matching the paper's figures).
func LineChart(title, xLabel, yLabel string, width, height int, series []Series) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	maxY := math.Inf(-1)
	empty := true
	for _, s := range series {
		for i := range s.X {
			empty = false
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if empty {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY <= 0 {
		maxY = 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, m byte) {
		cx := int(math.Round((x - minX) / (maxX - minX) * float64(width-1)))
		cy := int(math.Round(y / maxY * float64(height-1)))
		if cx < 0 || cx >= width || cy < 0 || cy >= height {
			return
		}
		row := height - 1 - cy
		grid[row][cx] = m
	}
	for si, s := range series {
		m := s.Marker
		if m == 0 {
			m = defaultMarkers[si%len(defaultMarkers)]
		}
		// Draw line interpolation between consecutive points, then points.
		for i := 0; i+1 < len(s.X); i++ {
			steps := width
			for st := 0; st <= steps; st++ {
				f := float64(st) / float64(steps)
				plot(s.X[i]+(s.X[i+1]-s.X[i])*f, s.Y[i]+(s.Y[i+1]-s.Y[i])*f, m)
			}
		}
		for i := range s.X {
			plot(s.X[i], s.Y[i], m)
		}
	}

	// Y axis labels on the left.
	yw := len(fmt.Sprintf("%.0f", maxY)) + 1
	for r := 0; r < height; r++ {
		yVal := maxY * float64(height-1-r) / float64(height-1)
		label := ""
		if r == 0 || r == height-1 || r == height/2 {
			label = fmt.Sprintf("%.0f", yVal)
		}
		fmt.Fprintf(&b, "%*s |%s\n", yw, label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%*s +%s\n", yw, "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%*s  %-*.0f%*.0f\n", yw, "", width/2, minX, width-width/2, maxX)
	fmt.Fprintf(&b, "%*s  x: %s   y: %s\n", yw, "", xLabel, yLabel)
	for si, s := range series {
		m := s.Marker
		if m == 0 {
			m = defaultMarkers[si%len(defaultMarkers)]
		}
		fmt.Fprintf(&b, "%*s  %c = %s\n", yw, "", m, s.Name)
	}
	return b.String()
}

// TracePanels renders one labeled density row per series: row i shows
// rows[i]'s values over uniform time steps as a ramp from ' ' (zero) to
// '@' (the global maximum). rowPrefix labels each row ("seg", "handle"),
// unit names the plotted quantity in the scale line, and marked rows get
// markLabel instead of unmarkLabel next to their index (producer/consumer
// roles in the figures). It draws the Figures 3-6 segment-size panels
// (rowPrefix "seg") and the controller-trajectory and event-density
// panels (rowPrefix "handle").
func TracePanels(title, rowPrefix, unit string, rows [][]int64, marked map[int]bool, markLabel, unmarkLabel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	var maxV int64 = 1
	for _, tr := range rows {
		for _, v := range tr {
			if v > maxV {
				maxV = v
			}
		}
	}
	ramp := []byte(" .:-=+*#%@")
	for i, tr := range rows {
		role := unmarkLabel
		if marked[i] {
			role = markLabel
		}
		fmt.Fprintf(&b, "%s %2d %s |", rowPrefix, i, role)
		for _, v := range tr {
			idx := int(v * int64(len(ramp)-1) / maxV)
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		fmt.Fprintf(&b, "| max=%d\n", maxOf(tr))
	}
	fmt.Fprintf(&b, "scale: ' '=0 .. '@'=%d %s; time runs left to right\n", maxV, unit)
	return b.String()
}

func maxOf(vs []int64) int64 {
	var m int64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// Table renders rows as a fixed-width text table. header names the
// columns; every row must have len(header) cells.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders header and rows as RFC-4180-ish comma-separated values
// (fields containing commas or quotes are quoted).
func CSV(header []string, rows [][]string) string {
	var b strings.Builder
	writeRec := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRec(header)
	for _, r := range rows {
		writeRec(r)
	}
	return b.String()
}
