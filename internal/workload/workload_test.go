package workload

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pools/internal/metrics"
)

func TestModelAndArrangementStrings(t *testing.T) {
	if RandomOps.String() != "random-ops" || ProducerConsumer.String() != "producer-consumer" {
		t.Fatal("model names wrong")
	}
	if Contiguous.String() != "contiguous" || Balanced.String() != "balanced" {
		t.Fatal("arrangement names wrong")
	}
	if Model(9).String() != "Model(9)" || Arrangement(9).String() != "Arrangement(9)" {
		t.Fatal("unknown enum strings wrong")
	}
}

func TestPaperDefaults(t *testing.T) {
	c := Paper(RandomOps)
	if c.Procs != 16 || c.TotalOps != 5000 || c.InitialElements != 320 {
		t.Fatalf("paper constants wrong: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Procs: 0, Model: RandomOps},
		{Procs: 4, Model: Model(9)},
		{Procs: 4, Model: RandomOps, AddFraction: -0.1},
		{Procs: 4, Model: RandomOps, AddFraction: 1.1},
		{Procs: 4, Model: ProducerConsumer, Producers: 5, Arrangement: Contiguous},
		{Procs: 4, Model: ProducerConsumer, Producers: -1, Arrangement: Contiguous},
		{Procs: 4, Model: ProducerConsumer, Producers: 2, Arrangement: Arrangement(9)},
		{Procs: 4, Model: RandomOps, TotalOps: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}

func TestProducerPositionsContiguous(t *testing.T) {
	got := ProducerPositions(16, 5, Contiguous)
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestProducerPositionsBalanced(t *testing.T) {
	// 5 producers over 16 processors spread to 0,3,6,9,12.
	got := ProducerPositions(16, 5, Balanced)
	want := []int{0, 3, 6, 9, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// 8 producers alternate 0,2,4,...,14 ("eight producers and eight
	// consumers would be arranged in an alternating fashion").
	got = ProducerPositions(16, 8, Balanced)
	for i, p := range got {
		if p != 2*i {
			t.Fatalf("8 balanced producers = %v", got)
		}
	}
}

func TestBalancedSpreadProperty(t *testing.T) {
	f := func(procsRaw, prodRaw uint8) bool {
		procs := int(procsRaw)%31 + 2
		producers := int(prodRaw)%procs + 1
		pos := ProducerPositions(procs, producers, Balanced)
		if len(pos) != producers {
			return false
		}
		seen := map[int]bool{}
		for _, p := range pos {
			if p < 0 || p >= procs || seen[p] {
				return false
			}
			seen[p] = true
		}
		// Max gap between successive producers (around the ring) is at
		// most ceil(procs/producers)+1.
		maxGap := 0
		for i := range pos {
			next := pos[(i+1)%len(pos)]
			gap := next - pos[i]
			if gap <= 0 {
				gap += procs
			}
			if gap > maxGap {
				maxGap = gap
			}
		}
		return maxGap <= (procs+producers-1)/producers+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsProducer(t *testing.T) {
	c := Paper(ProducerConsumer)
	c.Producers = 5
	c.Arrangement = Balanced
	want := map[int]bool{0: true, 3: true, 6: true, 9: true, 12: true}
	for p := 0; p < 16; p++ {
		if c.IsProducer(p) != want[p] {
			t.Errorf("IsProducer(%d) = %v", p, c.IsProducer(p))
		}
	}
}

func TestChooserRandomOpsMixConverges(t *testing.T) {
	for _, mix := range []float64{0, 0.3, 0.5, 0.8, 1} {
		c := Paper(RandomOps)
		c.AddFraction = mix
		ch := NewChooser(c, 0, 42)
		adds := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if ch.Next() == metrics.OpAdd {
				adds++
			}
		}
		got := float64(adds) / n
		if math.Abs(got-mix) > 0.02 {
			t.Errorf("mix %.1f: achieved %.3f", mix, got)
		}
	}
}

func TestChooserProducerConsumerRolesFixed(t *testing.T) {
	c := Paper(ProducerConsumer)
	c.Producers = 5
	for proc := 0; proc < 16; proc++ {
		ch := NewChooser(c, proc, 1)
		want := metrics.OpRemove
		if proc < 5 {
			want = metrics.OpAdd
		}
		for i := 0; i < 100; i++ {
			if got := ch.Next(); got != want {
				t.Fatalf("proc %d op %d = %v, want %v", proc, i, got, want)
			}
		}
	}
}

func TestChooserDeterministicPerSeed(t *testing.T) {
	c := Paper(RandomOps)
	c.AddFraction = 0.5
	a := NewChooser(c, 3, 99)
	b := NewChooser(c, 3, 99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("choosers diverged at %d", i)
		}
	}
}

func TestChooserDistinctProcsDiffer(t *testing.T) {
	c := Paper(RandomOps)
	c.AddFraction = 0.5
	a := NewChooser(c, 0, 99)
	b := NewChooser(c, 1, 99)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > n*3/4 {
		t.Fatalf("streams for distinct procs look identical: %d/%d equal", same, n)
	}
}

func TestDynamicRolesRotate(t *testing.T) {
	c := Paper(ProducerConsumer)
	c.Producers = 1
	c.RoleFlipEvery = 10
	// Proc 0 starts as the producer; after 10 ops the role moves to proc 1.
	ch0 := NewChooser(c, 0, 1)
	ch1 := NewChooser(c, 1, 1)
	for i := 0; i < 9; i++ { // ops 1..9: rotation 0
		if ch0.Next() != metrics.OpAdd {
			t.Fatalf("op %d: proc 0 should produce", i)
		}
		if ch1.Next() != metrics.OpRemove {
			t.Fatalf("op %d: proc 1 should consume", i)
		}
	}
	// ops 10..19: rotation 1 -> proc 1 produces.
	ch0.Next()
	ch1.Next()
	for i := 0; i < 9; i++ {
		if ch0.Next() != metrics.OpRemove {
			t.Fatal("after flip, proc 0 should consume")
		}
		if ch1.Next() != metrics.OpAdd {
			t.Fatal("after flip, proc 1 should produce")
		}
	}
}

func TestBudgetExactLimit(t *testing.T) {
	b := NewBudget(100)
	claimed := 0
	for b.TryClaimN(1) == 1 {
		claimed++
	}
	if claimed != 100 {
		t.Fatalf("claimed %d, want 100", claimed)
	}
	if !b.Exhausted() || b.Used() != 100 {
		t.Fatalf("Used = %d, Exhausted = %v", b.Used(), b.Exhausted())
	}
}

func TestBudgetConcurrentExact(t *testing.T) {
	b := NewBudget(10000)
	var wg sync.WaitGroup
	counts := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for b.TryClaimN(1) == 1 {
				counts[id]++
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10000 {
		t.Fatalf("concurrent budget claimed %d, want 10000", total)
	}
}

func TestSweeps(t *testing.T) {
	mixes := MixSweep()
	if len(mixes) != 11 || mixes[0] != 0 || mixes[10] != 1 {
		t.Fatalf("MixSweep = %v", mixes)
	}
	prods := ProducerSweep(16)
	if len(prods) != 17 || prods[0] != 0 || prods[16] != 16 {
		t.Fatalf("ProducerSweep = %v", prods)
	}
}
