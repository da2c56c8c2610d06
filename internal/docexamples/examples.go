//go:build docsexamples

package docexamples

import "pools"

// Task stands in for the element type the documentation examples pool.
type Task struct{}

// readmeQuickstart mirrors the README "Quickstart" fence.
func readmeQuickstart(workerID int, task Task, tasks []Task) {
	p, _ := pools.New[Task](pools.Options{Segments: 8, Policies: pools.PolicySet{Order: pools.SearchTree}})
	h := p.Handle(workerID) // each worker goroutine owns one segment
	h.Put(task)             // O(1), local
	task, ok := h.Get()     // local pop, or steal from a remote segment
	_, _ = task, ok

	// Batch operations amortize one segment acquisition over k elements:
	h.PutAll(tasks)
	batch := h.GetN(32)
	_ = batch

	// Policies make every knob pluggable; "adaptive" tunes itself online,
	// "per-handle" gives every worker its own independent controller:
	set, _ := pools.PolicyByName("per-handle")
	p2, _ := pools.New[Task](pools.Options{Segments: 8, Policies: set})
	_ = p2

	// On machines where "remote" is not one cost, rank steal victims by a
	// cost model and steer adds toward the emptiest segment:
	costs := pools.ButterflyCosts().WithTopology(pools.ClusterTopology{Size: 4}).WithExtraDelay(1000)
	p3, _ := pools.New[Task](pools.Options{Segments: 16, Policies: pools.PolicySet{
		Order: pools.LocalityVictimOrder{Model: costs},
		Place: pools.EmptiestPlacement{},
	}})
	_ = p3

	// On clustered machines, go further: exhaust your own cluster before
	// crossing (with an online-tuned escalation threshold), weigh emptiness
	// against hop cost on the add side, and count cross-cluster probes:
	topo := pools.ClusterTopology{Size: 4}
	p4, _ := pools.New[Task](pools.Options{Segments: 16, Topology: topo, Policies: pools.PolicySet{
		Order: pools.HierarchicalVictimOrder{Topo: topo},
		Place: pools.NearestEmptiestPlacement{Model: costs},
	}})
	_ = p4

	// Multi-tenant sharing: partition segments among tenants, confine each
	// tenant's adds to its own block, and measure cross-tenant theft:
	tm := pools.EvenTenants(16, 4)
	p5, _ := pools.New[Task](pools.Options{Segments: 16, CollectStats: true,
		Policies: pools.PolicySet{Place: pools.TenantFairPlacement{Map: tm}}})
	st := p5.Stats() // st.StealInterference() is the cross-tenant fraction
	_ = st
}

// packageDocExamples mirrors the pools package documentation fences
// (quickstart, batch operations, policies, locality-aware policies).
func packageDocExamples(workerID int, task Task, tasks []Task) {
	p, err := pools.New[Task](pools.Options{Segments: 8, Policies: pools.PolicySet{Order: pools.SearchTree}})
	if err != nil {
		return
	}
	h := p.Handle(workerID)
	h.Put(task)
	if _, ok := h.Get(); !ok {
		return
	}

	h.PutAll(tasks)
	batch := h.GetN(32)
	_ = batch

	set, _ := pools.PolicyByName("adaptive")
	p2, _ := pools.New[Task](pools.Options{Segments: 8, Policies: set})
	_ = p2

	costs := pools.ButterflyCosts().WithTopology(pools.ClusterTopology{Size: 4}).WithExtraDelay(1000)
	p3, _ := pools.New[Task](pools.Options{
		Segments: 16,
		Policies: pools.PolicySet{
			Order: pools.LocalityVictimOrder{Model: costs},
			Place: pools.EmptiestPlacement{},
		},
	})
	_ = p3
	set2, _ := pools.PolicyByName("per-handle")
	_ = set2
}

var _ = readmeQuickstart
var _ = packageDocExamples
