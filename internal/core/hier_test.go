package core

import (
	"sync"
	"testing"

	"pools/internal/numa"
	"pools/internal/policy"
)

// hierTopo is the 8-segment, 4-per-cluster topology the real-pool
// hierarchical tests run on: clusters {0..3} and {4..7}.
var hierTopo = numa.Clusters{Size: 4}

// TestNearestEmptiestUnderRace races producers placing through the
// topology-aware director against consumers, with conservation as the
// oracle; the race detector guards the probe path.
func TestNearestEmptiestUnderRace(t *testing.T) {
	const segs = 8
	const perWorker = 250
	model := numa.ButterflyCosts().WithTopology(hierTopo).WithExtraDelay(50)
	p, err := New[int](Options{
		Segments: segs,
		Topology: hierTopo,
		Policies: policy.Set{Place: policy.GiftToNearestEmptiest{Model: model}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < segs; i++ {
		p.Handle(i).Register()
	}
	var wg sync.WaitGroup
	var consumed [4]int
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			h := p.Handle(w)
			for i := 0; i < perWorker; i++ {
				if i%3 == 0 {
					h.PutAll([]int{i, i + 1})
				} else {
					h.Put(i)
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			h := p.Handle(4 + w)
			for i := 0; i < perWorker/2; i++ {
				if _, ok := h.Get(); ok {
					consumed[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := p.Len()
	for w := range consumed {
		total += consumed[w]
	}
	// Per producer: 84 PutAll×2 + 166 Put — 334 each (250 iterations).
	wantAdded := 0
	for i := 0; i < perWorker; i++ {
		if i%3 == 0 {
			wantAdded += 2
		} else {
			wantAdded++
		}
	}
	wantAdded *= 4
	if total != wantAdded {
		t.Fatalf("conservation violated: %d pooled + consumed, want %d", total, wantAdded)
	}
}

// TestTopologyInheritedByDelayer checks Options.Topology threads into an
// active Delayer that has no topology of its own, so injected busy-waits
// scale with hop distance (observable indirectly: the pool still works
// and classifies probes; the wiring itself is a construction-time copy).
func TestTopologyInheritedByDelayer(t *testing.T) {
	p, err := New[int](Options{
		Segments:     8,
		Topology:     hierTopo,
		Delay:        numa.Delayer{Model: numa.ButterflyCosts().WithExtraDelay(1), Scale: 1},
		CollectStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.opts.Delay.Model.Topo == nil {
		t.Fatal("Options.Topology not inherited by the Delayer's cost model")
	}
	if p.topo == nil {
		t.Fatal("pool topology unresolved")
	}
	// An explicit Delayer topology wins over Options.Topology.
	q, err := New[int](Options{
		Segments: 4,
		Topology: numa.Clusters{Size: 2},
		Delay:    numa.Delayer{Model: numa.ButterflyCosts().WithTopology(numa.Uniform{}), Scale: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.opts.Delay.Model.Topo.(numa.Uniform); !ok {
		t.Fatal("explicit Delayer topology overwritten")
	}
}
