package core

import (
	"math"
	"testing"

	"pools/internal/metrics"
)

// TestSampledStatsExactCounts runs a scripted single-goroutine mix on a
// stats-on pool — strict Put/Get alternation, PutAll/GetN pairs, forced
// steals (single and batch) and one abort — and checks the sampled
// accounting: every counter, OpCount and StealFraction equal the script's
// exact values, while each timing summary holds a sample of between
// 1/(2·sampleSpan) and 2/sampleSpan of its calls. The alternation phases
// have an even period, so a fixed even sampling interval would time only
// one of Put/Get and fail the sample bounds. The phase counts scale with
// sampleSpan, so each summary expects the same number of timed samples
// at any sampling rate.
func TestSampledStatsExactCounts(t *testing.T) {
	const (
		scale        = sampleSpan / 16
		alternations = 4096 * scale // A.Put; A.Get
		batchPairs   = 256 * scale  // A.PutAll(8); A.GetN(8)
		steals       = 512 * scale  // A.Put; B.Get (B's segment is empty: it steals A's one element)
		batchSteals  = 64 * scale   // A.PutAll(4); B.GetN(4) steals 2; A.GetN(4) takes the other 2
	)
	p := newTestPool(t, Options{Segments: 2, CollectStats: true})
	a, b := p.Handle(0), p.Handle(1)
	a.Register()
	b.Register()

	for i := 0; i < alternations; i++ {
		a.Put(i)
		if _, ok := a.Get(); !ok {
			t.Fatal("local Get missed")
		}
	}
	batch := make([]int, 8)
	for i := 0; i < batchPairs; i++ {
		a.PutAll(batch)
		if got := len(a.GetN(8)); got != 8 {
			t.Fatalf("local GetN(8) returned %d", got)
		}
	}
	for i := 0; i < steals; i++ {
		a.Put(i)
		if _, ok := b.Get(); !ok {
			t.Fatal("stealing Get missed")
		}
	}
	for i := 0; i < batchSteals; i++ {
		a.PutAll(batch[:4])
		if got := len(b.GetN(4)); got != 2 {
			t.Fatalf("stealing GetN(4) returned %d, want steal-half's 2", got)
		}
		if got := len(a.GetN(4)); got != 2 {
			t.Fatalf("local GetN(4) returned %d, want the victim's remaining 2", got)
		}
	}
	b.Close()
	if _, ok := a.Get(); ok {
		t.Fatal("Get on an empty pool with one open handle should abort")
	}

	st := p.Stats()
	addCalls := int64(alternations + batchPairs + steals + batchSteals)
	removeCalls := int64(alternations + batchPairs + steals + 2*batchSteals)
	allSteals := int64(steals + batchSteals)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Adds", st.Adds, alternations + 8*batchPairs + steals + 4*batchSteals},
		{"Removes", st.Removes, alternations + 8*batchPairs + steals + 4*batchSteals},
		{"LocalRemoves", st.LocalRemoves, alternations + 8*batchPairs + 2*batchSteals},
		{"Steals", st.Steals, allSteals},
		{"Aborts", st.Aborts, 1},
		{"AddCalls", st.AddCalls, addCalls},
		{"RemoveCalls", st.RemoveCalls, removeCalls},
		{"BatchAdds", st.BatchAdds, batchPairs + batchSteals},
		{"BatchRemoves", st.BatchRemoves, batchPairs + 2*batchSteals},
		{"OpCount", st.OpCount(), addCalls + removeCalls + 1},
		{"SegmentsExamined.N", st.SegmentsExamined.N(), allSteals},
		{"ElementsStolen.N", st.ElementsStolen.N(), allSteals},
		// B's first search probes its own empty segment, then A's; the
		// linear searcher starts every later search at A, its last victim.
		{"SegmentsExamined.Sum", int64(math.Round(st.SegmentsExamined.Sum())), allSteals + 1},
		{"ElementsStolen.Sum", int64(math.Round(st.ElementsStolen.Sum())), steals + 2*batchSteals},
		{"OpLat.N", st.OpLat.N(), st.AddTime.N() + st.RemoveTime.N() + st.AbortTime.N()},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if got, want := st.StealFraction(), float64(allSteals)/float64(removeCalls); got != want {
		t.Errorf("StealFraction = %v, want %v", got, want)
	}

	for _, c := range []struct {
		name  string
		sum   metrics.Summary
		calls int64
	}{
		{"AddTime", st.AddTime, addCalls},
		{"RemoveTime", st.RemoveTime, removeCalls},
		{"StealTime", st.StealTime, allSteals},
	} {
		if n := c.sum.N(); n < c.calls/(2*sampleSpan) || n > 2*c.calls/sampleSpan {
			t.Errorf("%s timed %d of %d calls, want within [calls/%d, calls/%d]",
				c.name, n, c.calls, 2*sampleSpan, sampleSpan/2)
		}
		// Owner-path operations take well under a µs: the samples keep
		// the fraction instead of truncating it to zero.
		if c.sum.Mean() <= 0 {
			t.Errorf("%s mean = %v µs, want > 0", c.name, c.sum.Mean())
		}
	}
	if n := st.AbortTime.N(); n > 1 {
		t.Errorf("AbortTime timed %d of 1 abort", n)
	}
}
