package policy

import (
	"reflect"
	"testing"
)

func TestEvenTenants(t *testing.T) {
	m := EvenTenants(16, 4)
	for s := 0; s < 16; s++ {
		if got, want := m.TenantOf(s), s/4; got != want {
			t.Errorf("TenantOf(%d) = %d, want %d (contiguous blocks)", s, got, want)
		}
	}
	// Uneven division still partitions every segment, ids stay dense.
	m = EvenTenants(10, 3)
	if first, last := m.TenantOf(0), m.TenantOf(9); first != 0 || last != 2 {
		t.Errorf("tenants run %d..%d, want 0..2", first, last)
	}
	for s := 1; s < 10; s++ {
		if m.TenantOf(s) < m.TenantOf(s-1) {
			t.Errorf("tenant ids not monotone at segment %d", s)
		}
	}
	// Degenerate tenant counts clamp to one tenant.
	for s, id := range EvenTenants(4, 0) {
		if id != 0 {
			t.Errorf("EvenTenants(4,0) puts segment %d in tenant %d, want 0", s, id)
		}
	}
}

func TestTenantMapDegradesToSingleTenant(t *testing.T) {
	var nilMap TenantMap
	if nilMap.TenantOf(3) != 0 {
		t.Error("nil map should mean a single tenant owning everything")
	}
	short := TenantMap{0, 1}
	if short.TenantOf(5) != 0 {
		t.Error("out-of-range segment should belong to tenant 0")
	}
	if short.TenantOf(-1) != 0 {
		t.Error("negative segment should belong to tenant 0")
	}
}

func TestTenantFairStaysInPartition(t *testing.T) {
	m := EvenTenants(8, 2) // tenant 0: segments 0-3, tenant 1: 4-7
	tf := TenantFair{Map: m, Probes: -1}
	sizes := make([]int, 8)
	size := func(s int) int { return sizes[s] }

	// The emptiest segment overall is foreign: Direct must not pick it.
	for s := range sizes {
		sizes[s] = 10
	}
	sizes[6] = 0 // tenant 1's segment, tempting but off-limits to tenant 0
	sizes[2] = 3 // tenant 0's emptiest
	if got := tf.Plan(0, 8).Direct(size); got != 2 {
		t.Errorf("Direct(0) = %d, want 2 (own tenant's emptiest)", got)
	}
	if got := tf.Plan(5, 8).Direct(size); got != 6 {
		t.Errorf("Direct(5) = %d, want 6 (tenant 1's emptiest)", got)
	}

	// Ties keep the nearest probed segment — an all-equal tenant places
	// locally.
	for s := range sizes {
		sizes[s] = 7
	}
	if got := tf.Plan(3, 8).Direct(size); got != 3 {
		t.Errorf("Direct(3) on uniform sizes = %d, want self", got)
	}
}

func TestTenantFairProbeBudget(t *testing.T) {
	m := EvenTenants(8, 1) // one tenant: the whole ring is eligible
	tf := TenantFair{Map: m, Probes: 2}
	sizes := []int{5, 4, 0, 0, 0, 0, 0, 0}
	size := func(s int) int { return sizes[s] }
	// Only segments 0 and 1 are probed under the budget; the empty ones
	// beyond are never seen.
	if got := tf.Plan(0, 8).Direct(size); got != 1 {
		t.Errorf("Direct with Probes=2 = %d, want 1", got)
	}
}

func TestTenantFairPlacementContract(t *testing.T) {
	tf := TenantFair{Map: EvenTenants(4, 2)}
	plan := tf.Plan(1, 4)
	if plan.Gift != nil {
		t.Error("Gift law set: mailbox gifts cannot be routed by tenant")
	}
	if tf.Name() == "" {
		t.Error("Name must be non-empty")
	}
	if want := []bool{false, false, true, true}; !reflect.DeepEqual(plan.Foreign, want) {
		t.Errorf("Foreign = %v, want %v", plan.Foreign, want)
	}
	if got := (TenantFair{}).Plan(1, 4).Foreign; got != nil {
		t.Errorf("Foreign without a partition = %v, want nil", got)
	}
}
