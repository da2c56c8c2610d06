package policy

// TenantMap assigns each segment to a tenant: entry i is the tenant id
// (0-based, small, dense) of segment i. A multi-tenant pool is one shared
// pool whose segments are partitioned among N tenants; the map is how
// tenant-aware policies — and the engine's steal-interference accounting —
// learn the partition. Segments beyond the map's length (or a nil map)
// belong to tenant 0.
type TenantMap []int

// TenantOf returns the tenant owning segment seg (0 for out-of-range
// segments, so a short or nil map degrades to a single tenant).
func (m TenantMap) TenantOf(seg int) int {
	if seg < 0 || seg >= len(m) {
		return 0
	}
	return m[seg]
}

// EvenTenants builds the contiguous block partition: segments
// [t*segments/tenants, (t+1)*segments/tenants) belong to tenant t. This
// mirrors how the multi-tenant workload assigns processes to tenants, so
// a process and its own segment always share a tenant.
func EvenTenants(segments, tenants int) TenantMap {
	if tenants < 1 {
		tenants = 1
	}
	m := make(TenantMap, segments)
	for s := range m {
		m[s] = s * tenants / segments
	}
	return m
}

// TenantFair is the tenant-aware fairness placement: it confines each
// add to segments of the adder's own tenant, walking them emptiest-first
// under a probe budget (GiftToEmptiest restricted to the partition). It
// attacks multi-tenant interference from the add side — a hot tenant's
// surplus is spread across that tenant's own segments instead of piling
// onto one, so its neighbors steal within the tenant before plundering a
// stranger's reserve. Its plan also carries the partition (the Foreign
// mask), so the engine classifies every successful steal as same-tenant
// or cross-tenant (PoolStats.RecordStealVictim), which is what
// `poolbench -exp tenants` reports as steal interference.
//
// Mailbox gifts are anonymous — a hungry searcher from any tenant could
// receive one — so the plan never gifts: fairness placement never
// donates across the partition, and pools allocate no mailboxes for it.
type TenantFair struct {
	// Map is the tenant partition. A nil map means one tenant, which
	// degenerates to GiftToEmptiest's ring sweep.
	Map TenantMap
	// Probes bounds how many own-tenant segments each add examines,
	// walking the ring from the adder's own segment. 0 means
	// DefaultProbes; negative probes the whole tenant.
	Probes int
}

// Plan implements Placement: probe up to Probes segments of the adder's
// own tenant, walking the ring from self, and land on the emptiest. Ties
// keep the nearest, so an all-empty tenant places locally.
func (t TenantFair) Plan(self, segments int) PlacePlan {
	k := budget(t.Probes, segments)
	mine := t.Map.TenantOf(self)
	p := PlacePlan{Candidates: make([]int, 0, k), Weight: 1}
	for off := 0; off < segments && len(p.Candidates) < k; off++ {
		if s := (self + off) % segments; t.Map.TenantOf(s) == mine {
			p.Candidates = append(p.Candidates, s)
		}
	}
	if t.Map != nil {
		p.Foreign = make([]bool, segments)
		for s := range p.Foreign {
			p.Foreign[s] = t.Map.TenantOf(s) != mine
		}
	}
	return p
}

// Name implements Placement.
func (TenantFair) Name() string { return "tenant-fair" }
