// Package metrics provides the measurement primitives used by the
// experiment harness: streaming summaries (Welford), the per-operation
// pool counters (PoolStats), a log-bucket latency histogram (LatencyHist),
// and timestamped traces.
//
// The paper reports, for every workload: average operation time, segments
// examined per steal, elements stolen per steal, the fraction of removes
// that required a steal, steal frequency, and per-segment size traces over
// time (Figures 3-6). Every one of those reductions lives here so that the
// simulator, the real pool, and the harness all aggregate measurements the
// same way.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a streaming mean and variance using Welford's
// algorithm, plus min and max. The zero value is an empty summary.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a new observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds another summary into s, as if every observation of o had been
// added to s. Uses Chan et al.'s parallel combination formula.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.mean += delta * float64(o.n) / float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the (population) variance, or 0 with fewer than two samples.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// String renders "mean ± std (n=N)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", s.Mean(), s.Std(), s.n)
}

// TracePoint is one sample in a timestamped series: the size of a segment
// at a virtual (or real) time.
type TracePoint struct {
	Time  int64
	Value int64
}

// Trace is an append-only timestamped series. It records segment sizes over
// time for the Figure 3-6 style plots. The zero value is ready to use.
type Trace struct {
	points []TracePoint
}

// Record appends a sample. Samples should arrive in non-decreasing time
// order; out-of-order samples are kept but SampleAt sorts before querying.
func (t *Trace) Record(time, value int64) {
	t.points = append(t.points, TracePoint{Time: time, Value: value})
}

// Len returns the number of recorded points.
func (t *Trace) Len() int { return len(t.points) }

// Points returns a copy of the recorded samples.
func (t *Trace) Points() []TracePoint {
	out := make([]TracePoint, len(t.points))
	copy(out, t.points)
	return out
}

// SampleAt resamples the trace at the given times using last-value-carried-
// forward semantics (a step function, matching how a segment size evolves).
// Times before the first sample yield the first sample's value, or 0 for an
// empty trace.
func (t *Trace) SampleAt(times []int64) []int64 {
	out := make([]int64, len(times))
	if len(t.points) == 0 {
		return out
	}
	pts := t.Points()
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Time < pts[j].Time })
	for i, tm := range times {
		// Find the last point with Time <= tm.
		idx := sort.Search(len(pts), func(j int) bool { return pts[j].Time > tm })
		if idx == 0 {
			out[i] = pts[0].Value
		} else {
			out[i] = pts[idx-1].Value
		}
	}
	return out
}

// MaxTime returns the largest timestamp in the trace, or 0 if empty.
func (t *Trace) MaxTime() int64 {
	var m int64
	for _, p := range t.points {
		if p.Time > m {
			m = p.Time
		}
	}
	return m
}
