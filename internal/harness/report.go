package harness

import (
	"fmt"

	"pools/internal/plot"
)

// col is one column of an experiment's output: its header and cell in
// the text table and in the CSV. Each experiment lists its columns once
// and both forms render from that list. An empty header leaves the
// column out of that form, so one spec carries table-only columns (a
// ratio against the best row) and CSV-only ones (raw µs behind a
// table's ms) alike.
type col[R any] struct {
	head, csvHead string
	cell, csvCell func(R) string
}

// str is a column whose cell reads the same in both forms.
func str[R any](head, csvHead string, v func(R) string) col[R] {
	return col[R]{head: head, csvHead: csvHead, cell: v, csvCell: v}
}

// count is an integer column.
func count[R any, N ~int | ~int64 | ~uint64](head, csvHead string, v func(R) N) col[R] {
	return str(head, csvHead, func(r R) string { return fmt.Sprintf("%d", v(r)) })
}

// num is a float column: fmtF in the table, prec decimals in the CSV.
func num[R any](head, csvHead string, prec int, v func(R) float64) col[R] {
	return scaled(head, func(x float64) float64 { return x }, csvHead, prec, v)
}

// scaled is num with the table cell in other units, fmtF(to(v)): ms for
// a µs value, a percentage for a fraction.
func scaled[R any](head string, to func(float64) float64, csvHead string, prec int, v func(R) float64) col[R] {
	return col[R]{head: head, csvHead: csvHead,
		cell:    func(r R) string { return fmtF(to(v(r))) },
		csvCell: fixed(prec, v)}
}

// dec is a float column at fixed decimals in each form.
func dec[R any](head string, prec int, csvHead string, csvPrec int, v func(R) float64) col[R] {
	return col[R]{head: head, csvHead: csvHead, cell: fixed(prec, v), csvCell: fixed(csvPrec, v)}
}

// fixed formats v with prec decimals.
func fixed[R any](prec int, v func(R) float64) func(R) string {
	return func(r R) string { return fmt.Sprintf("%.*f", prec, v(r)) }
}

// ms converts virtual µs to ms; pct a fraction to a percentage.
func ms(us float64) float64 { return us / 1000 }
func pct(f float64) float64 { return f * 100 }

// csvOnly drops the column from the table.
func (c col[R]) csvOnly() col[R] {
	c.head = ""
	return c
}

// at lifts a Point column onto a row type that carries a Point.
func at[R any](pt func(R) Point, c col[Point]) col[R] {
	return col[R]{head: c.head, csvHead: c.csvHead,
		cell:    func(r R) string { return c.cell(pt(r)) },
		csvCell: func(r R) string { return c.csvCell(pt(r)) }}
}

// The Point columns the sweeps share, named by the metric they show.
var (
	opMS       = scaled("op (ms)", ms, "", 0, func(p Point) float64 { return p.AvgOpTime })
	addMS      = scaled("add (ms)", ms, "", 0, func(p Point) float64 { return p.AvgAddTime })
	removeMS   = scaled("remove (ms)", ms, "", 0, func(p Point) float64 { return p.AvgRemoveTime })
	opUS       = num("µs/op", "avg_op_us", 2, func(p Point) float64 { return p.AvgOpTime })
	removeUS   = num("µs/remove", "avg_remove_us", 2, func(p Point) float64 { return p.AvgRemoveTime })
	elemUS     = num("µs/element", "per_element_us", 2, func(p Point) float64 { return p.PerElementTime })
	segs       = num("segs/steal", "segs_per_steal", 2, func(p Point) float64 { return p.SegmentsExamined })
	stolen     = num("stolen/steal", "stolen_per_steal", 2, func(p Point) float64 { return p.ElementsStolen })
	stealsOp   = num("steals/op", "steals_per_op", 4, func(p Point) float64 { return p.StealsPerOp })
	abortsOp   = num("aborts/op", "aborts_per_op", 4, func(p Point) float64 { return p.AbortsPerOp })
	stealPct   = scaled("%removes stealing", pct, "steal_fraction", 4, func(p Point) float64 { return p.StealFraction })
	makespanMS = scaled("makespan (ms)", ms, "makespan_us", 0, func(p Point) float64 { return p.MakespanMean })
)

// cells selects the table (csv false) or CSV columns of cols and formats
// every row under them.
func cells[R any](cols []col[R], rows []R, csv bool) ([]string, [][]string) {
	var head []string
	var fmts []func(R) string
	for _, c := range cols {
		h, f := c.head, c.cell
		if csv {
			h, f = c.csvHead, c.csvCell
		}
		if h != "" {
			head = append(head, h)
			fmts = append(fmts, f)
		}
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		for _, f := range fmts {
			out[i] = append(out[i], f(r))
		}
	}
	return head, out
}

// table renders rows as the spec's text table; csvOf as its CSV.
func table[R any](cols []col[R], rows []R) string { return plot.Table(cells(cols, rows, false)) }
func csvOf[R any](cols []col[R], rows []R) string { return plot.CSV(cells(cols, rows, true)) }

// seriesBy draws rows as chart lines, one per name in first-seen order.
func seriesBy[R any](rows []R, name func(R) string, x, y func(R) float64) []plot.Series {
	var out []plot.Series
	index := map[string]int{}
	for _, r := range rows {
		n := name(r)
		i, ok := index[n]
		if !ok {
			i = len(out)
			index[n] = i
			out = append(out, plot.Series{Name: n})
		}
		out[i].X = append(out[i].X, x(r))
		out[i].Y = append(out[i].Y, y(r))
	}
	return out
}
