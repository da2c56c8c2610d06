package main

import (
	"math/bits"
	"sort"
)

// Log-linear nanosecond histogram: values below 32 get one bucket each,
// larger values 32 buckets per power of two (about 3% resolution).
// Recording is one index computation and one increment, so worker loops
// can record without allocating or sharing a cache line.
const (
	subBits  = 5
	subCount = 1 << subBits
	maxShift = 40 // values are clamped below 2^46 ns (about 19 hours)
	nBuckets = (maxShift + 2) * subCount
)

type hist struct {
	n [nBuckets]uint64
}

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	shift := bits.Len64(u) - subBits - 1
	if shift > maxShift {
		return nBuckets - 1
	}
	return (shift+1)*subCount + int(u>>uint(shift)) - subCount
}

// bucketRange returns bucket b's lower bound and width in ns.
func bucketRange(b int) (lo, width float64) {
	if b < subCount {
		return float64(b), 1
	}
	shift := b/subCount - 1
	return float64((b%subCount + subCount) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) add(v int64) { h.n[bucketOf(v)]++ }

func (h *hist) merge(o *hist) {
	for i, c := range o.n {
		h.n[i] += c
	}
}

func (h *hist) count() uint64 {
	var t uint64
	for _, c := range h.n {
		t += c
	}
	return t
}

// quantile returns the q-quantile, interpolated linearly inside its
// bucket so that it moves continuously with the data (0 when empty).
func (h *hist) quantile(q float64) float64 {
	total := h.count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for b, c := range h.n {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(b)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(nBuckets - 1)
	return lo + w
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
