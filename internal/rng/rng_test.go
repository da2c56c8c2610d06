package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// Reference values for splitmix64 seeded with 1234567, from the public
// reference implementation (Vigna).
func TestSplitMix64KnownVector(t *testing.T) {
	sm := &SplitMix64{state: 1234567}
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Fatalf("splitmix64 output %d = %d, want %d", i, got, w)
		}
	}
}

func TestMixMatchesSplitMixStep(t *testing.T) {
	f := func(seed uint64) bool {
		sm := &SplitMix64{state: seed}
		return sm.Next() == Mix(seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubSeedStreamsDiffer(t *testing.T) {
	seen := make(map[uint64]int)
	for stream := 0; stream < 1000; stream++ {
		s := SubSeed(42, stream)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SubSeed(42, %d) collides with stream %d", stream, prev)
		}
		seen[s] = stream
	}
}

func TestSubSeedDeterministic(t *testing.T) {
	f := func(seed uint64, stream uint8) bool {
		return SubSeed(seed, int(stream)) == SubSeed(seed, int(stream))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXoshiroZeroValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Next on zero-value Xoshiro256 did not panic")
		}
	}()
	var x Xoshiro256
	x.Next()
}

func TestXoshiroDeterministic(t *testing.T) {
	a := NewXoshiro256(99)
	b := NewXoshiro256(99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a := NewXoshiro256(1)
	b := NewXoshiro256(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestIntnRange(t *testing.T) {
	x := NewXoshiro256(7)
	for _, n := range []int{1, 2, 3, 10, 16, 1000} {
		for i := 0; i < 2000; i++ {
			v := x.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	x := NewXoshiro256(7)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			x.Intn(n)
		}()
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared smoke test over 16 buckets (the paper's segment count).
	const buckets = 16
	const samples = 160000
	x := NewXoshiro256(2026)
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[x.Intn(buckets)]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile is ~37.7.
	if chi2 > 37.7 {
		t.Fatalf("chi-squared %.1f exceeds 37.7; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := x.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	x := NewXoshiro256(5)
	cases := []struct {
		p    float64
		want float64
	}{
		{-0.5, 0}, {0, 0}, {0.3, 0.3}, {0.5, 0.5}, {1, 1}, {1.5, 1},
	}
	const n = 50000
	for _, c := range cases {
		hits := 0
		for i := 0; i < n; i++ {
			if x.Bool(c.p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("Bool(%v) rate %.4f, want %.2f", c.p, got, c.want)
		}
	}
}

func TestSeedResetsSequence(t *testing.T) {
	x := NewXoshiro256(123)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = x.Next()
	}
	x.Seed(123)
	for i := range first {
		if got := x.Next(); got != first[i] {
			t.Fatalf("after reseed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

func BenchmarkXoshiroNext(b *testing.B) {
	x := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = x.Next()
	}
	_ = sink
}

func BenchmarkIntn16(b *testing.B) {
	x := NewXoshiro256(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = x.Intn(16)
	}
	_ = sink
}
