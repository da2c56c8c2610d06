package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSummaryAgainstNaive(t *testing.T) {
	data := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8.5, -2, 0}
	var s Summary
	sum := 0.0
	for _, x := range data {
		s.Add(x)
		sum += x
	}
	mean := sum / float64(len(data))
	varSum := 0.0
	for _, x := range data {
		varSum += (x - mean) * (x - mean)
	}
	wantVar := varSum / float64(len(data))

	if s.N() != int64(len(data)) {
		t.Fatalf("N = %d, want %d", s.N(), len(data))
	}
	if !almostEqual(s.Mean(), mean, 1e-12) {
		t.Errorf("Mean = %v, want %v", s.Mean(), mean)
	}
	if !almostEqual(s.Var(), wantVar, 1e-12) {
		t.Errorf("Var = %v, want %v", s.Var(), wantVar)
	}
	if s.Min() != -2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want -2/9", s.Min(), s.Max())
	}
	if !almostEqual(s.Sum(), sum, 1e-12) {
		t.Errorf("Sum = %v, want %v", s.Sum(), sum)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 || s.N() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		var merged, left, right Summary
		for _, x := range a {
			x = math.Mod(x, 1e6) // keep magnitudes sane
			if math.IsNaN(x) {
				x = 0
			}
			left.Add(x)
			merged.Add(x)
		}
		for _, x := range b {
			x = math.Mod(x, 1e6)
			if math.IsNaN(x) {
				x = 0
			}
			right.Add(x)
			merged.Add(x)
		}
		left.Merge(right)
		return left.N() == merged.N() &&
			almostEqual(left.Mean(), merged.Mean(), 1e-9) &&
			almostEqual(left.Var(), merged.Var(), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryMergeEmptySides(t *testing.T) {
	var a, b Summary
	b.Add(5)
	b.Add(7)
	a.Merge(b) // empty <- non-empty
	if a.N() != 2 || a.Mean() != 6 {
		t.Fatalf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Summary
	a.Merge(c) // non-empty <- empty
	if a.N() != 2 || a.Mean() != 6 {
		t.Fatalf("merge of empty changed state: n=%d mean=%v", a.N(), a.Mean())
	}
}

func TestTraceSampleAtStepSemantics(t *testing.T) {
	var tr Trace
	tr.Record(10, 5)
	tr.Record(20, 8)
	tr.Record(30, 2)
	got := tr.SampleAt([]int64{0, 10, 15, 20, 25, 30, 99})
	want := []int64{5, 5, 5, 8, 8, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SampleAt[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTraceEmpty(t *testing.T) {
	var tr Trace
	got := tr.SampleAt([]int64{1, 2, 3})
	for _, v := range got {
		if v != 0 {
			t.Fatal("empty trace should sample zeros")
		}
	}
	if tr.MaxTime() != 0 {
		t.Fatal("empty trace MaxTime should be 0")
	}
}

func TestTraceMaxes(t *testing.T) {
	var tr Trace
	tr.Record(5, 100)
	tr.Record(50, 3)
	if tr.MaxTime() != 50 {
		t.Fatalf("MaxTime = %d, want 50", tr.MaxTime())
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestTracePointsIsCopy(t *testing.T) {
	var tr Trace
	tr.Record(1, 1)
	p := tr.Points()
	p[0].Value = 999
	if tr.Points()[0].Value != 1 {
		t.Fatal("Points returned a reference to internal storage")
	}
}

func TestPoolStatsAccounting(t *testing.T) {
	var s PoolStats
	s.RecordAdd(70)
	s.RecordAdd(90)
	s.RecordLocalRemove(110)
	s.RecordStealRemove(500, 390, 3, 10, 1, false)
	s.RecordAbort(30)

	if s.Adds != 2 || s.Removes != 2 || s.LocalRemoves != 1 || s.Steals != 1 || s.Aborts != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if got := s.Ops(); got != 4 {
		t.Errorf("Ops = %d, want 4", got)
	}
	wantAvg := (70.0 + 90 + 110 + 500 + 30) / 5
	if !almostEqual(s.AvgOpTime(), wantAvg, 1e-12) {
		t.Errorf("AvgOpTime = %v, want %v", s.AvgOpTime(), wantAvg)
	}
	if !almostEqual(s.StealFraction(), 0.5, 1e-12) {
		t.Errorf("StealFraction = %v, want 0.5", s.StealFraction())
	}
	if !almostEqual(s.MixAchieved(), 0.5, 1e-12) {
		t.Errorf("MixAchieved = %v, want 0.5", s.MixAchieved())
	}
	if s.SegmentsExamined.Mean() != 3 || s.ElementsStolen.Mean() != 10 {
		t.Errorf("steal summaries wrong: %v %v", s.SegmentsExamined.Mean(), s.ElementsStolen.Mean())
	}
}

func TestPoolStatsMerge(t *testing.T) {
	var a, b PoolStats
	a.RecordAdd(10)
	b.RecordLocalRemove(20)
	b.RecordStealRemove(30, 15, 2, 4, 1, false)
	b.RecordAbort(10)
	a.Merge(&b)
	if a.Adds != 1 || a.Removes != 2 || a.Steals != 1 || a.Aborts != 1 {
		t.Fatalf("merged counts wrong: %+v", a)
	}
	if a.Ops() != 3 {
		t.Fatalf("merged Ops = %d", a.Ops())
	}
}

// Untimed operations move every counter but no timing summary, and the
// per-call averages scale each kind's sampled mean by its exact call
// count.
func TestPoolStatsUntimedCountsOnly(t *testing.T) {
	var s PoolStats
	s.RecordAdd(2.5)
	s.RecordAdd(Untimed)
	s.RecordBatchAdd(Untimed, 4)
	s.RecordLocalRemove(0.5)
	s.RecordStealRemove(Untimed, Untimed, 2, 3, 1, false)
	s.RecordStealRemove(1.5, 1.25, 1, 4, 2, true)
	s.RecordAbort(Untimed)

	if s.Adds != 6 || s.AddCalls != 3 || s.Removes != 4 || s.RemoveCalls != 3 ||
		s.Steals != 2 || s.Aborts != 1 || s.BatchAdds != 1 || s.BatchRemoves != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.AddTime.N() != 1 || s.RemoveTime.N() != 2 || s.StealTime.N() != 1 || s.AbortTime.N() != 0 {
		t.Fatalf("timed samples = %d/%d/%d/%d, want 1/2/1/0",
			s.AddTime.N(), s.RemoveTime.N(), s.StealTime.N(), s.AbortTime.N())
	}
	if s.SegmentsExamined.N() != 2 || s.ElementsStolen.Sum() != 7 {
		t.Errorf("steal summaries must cover untimed steals: examined n=%d, stolen sum=%v",
			s.SegmentsExamined.N(), s.ElementsStolen.Sum())
	}
	if s.OpLat.N() != 3 {
		t.Errorf("OpLat.N = %d, want the 3 timed operations", s.OpLat.N())
	}
	if s.OpCount() != 7 {
		t.Errorf("OpCount = %d, want 7", s.OpCount())
	}
	if !almostEqual(s.StealFraction(), 2.0/3, 1e-12) {
		t.Errorf("StealFraction = %v, want 2/3", s.StealFraction())
	}
	// Estimated total: add mean 2.5 × 3 calls + remove mean 1.0 × 3 calls
	// + no timed abort.
	if want := (2.5*3 + 1.0*3) / 7; !almostEqual(s.AvgOpTime(), want, 1e-12) {
		t.Errorf("AvgOpTime = %v, want %v", s.AvgOpTime(), want)
	}
	if want := (2.5*3 + 1.0*3) / 11; !almostEqual(s.AvgTimePerElement(), want, 1e-12) {
		t.Errorf("AvgTimePerElement = %v, want %v", s.AvgTimePerElement(), want)
	}
	var m PoolStats
	m.Merge(&s)
	if m.AddCalls != 3 || m.RemoveCalls != 3 {
		t.Errorf("Merge dropped call counts: %d/%d", m.AddCalls, m.RemoveCalls)
	}
}

func TestPoolStatsEmptyRatios(t *testing.T) {
	var s PoolStats
	if s.AvgOpTime() != 0 || s.StealFraction() != 0 || s.MixAchieved() != 0 {
		t.Fatal("empty stats should report zero ratios")
	}
}

func TestOpKindString(t *testing.T) {
	if OpAdd.String() != "add" || OpRemove.String() != "remove" || OpKind(0).String() != "unknown" {
		t.Fatal("OpKind.String wrong")
	}
}

func TestPoolStatsSummary(t *testing.T) {
	var s PoolStats
	s.RecordAdd(10)
	s.RecordLocalRemove(20)
	s.RecordStealRemove(30, 15, 2, 4, 1, false)
	s.RecordAbort(40)
	s.RecordStealVictim(true)
	s.RecordStealVictim(false)
	s.RecordProbe(true)
	s.RecordProbe(false)
	got := s.Summary()
	// ops = 1 add + 2 completed removes; one steal, one
	// abort; 1/2 foreign steals; 1/2 cross probes.
	for _, want := range []string{
		"ops=3", "steals=1", "aborts=1",
		"interference=0.500", "cross_probe=0.500",
		"p50=", "p99=", "p999=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Summary %q missing %q", got, want)
		}
	}
	if strings.Contains(got, "\n") {
		t.Errorf("Summary is not one line: %q", got)
	}
}
