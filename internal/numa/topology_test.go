package numa

import "testing"

// TestTopologyDistances checks the distance laws: Uniform charges every
// remote pair one hop; Clusters charges one hop within a cluster and Far
// (default 4) across; both are symmetric and zero on the diagonal.
func TestTopologyDistances(t *testing.T) {
	u := Uniform{}
	c := Clusters{Size: 4}
	cf := Clusters{Size: 2, Far: 7}
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			for _, topo := range []Topology{u, c, cf} {
				if got, rev := topo.Distance(a, b), topo.Distance(b, a); got != rev {
					t.Fatalf("%s.Distance(%d,%d)=%d but (%d,%d)=%d: asymmetric", topo.Name(), a, b, got, b, a, rev)
				}
			}
			switch {
			case a == b:
				if u.Distance(a, b) != 0 || c.Distance(a, b) != 0 {
					t.Fatalf("Distance(%d,%d) != 0 on the diagonal", a, b)
				}
			default:
				if got := u.Distance(a, b); got != 1 {
					t.Fatalf("Uniform.Distance(%d,%d) = %d, want 1", a, b, got)
				}
				want := 4
				if a/4 == b/4 {
					want = 1
				}
				if got := c.Distance(a, b); got != want {
					t.Fatalf("Clusters{4}.Distance(%d,%d) = %d, want %d", a, b, got, want)
				}
			}
		}
	}
	if got := cf.Distance(0, 15); got != 7 {
		t.Fatalf("Clusters{2,7}.Distance(0,15) = %d, want 7", got)
	}
	if got := cf.Distance(0, 1); got != 1 {
		t.Fatalf("Clusters{2,7}.Distance(0,1) = %d, want 1", got)
	}
	// A zero Size treats every processor as its own cluster.
	if got := (Clusters{}).Distance(0, 1); got != 4 {
		t.Fatalf("Clusters{}.Distance(0,1) = %d, want 4", got)
	}
	if (Clusters{}).Name() != "clusters-1" || (Clusters{Size: 4}).Name() != "clusters-4" || (Uniform{}).Name() != "uniform" {
		t.Fatal("topology names drifted")
	}
}

// TestCostWithTopology checks RemoteExtra scales with hop distance, the
// nil-topology behavior is unchanged, and shared objects (home < 0) stay
// at one hop.
func TestCostWithTopology(t *testing.T) {
	base := ButterflyCosts().WithExtraDelay(100)
	flat := base.Cost(AccessProbe, 0, 8)
	if got := base.WithTopology(Uniform{}).Cost(AccessProbe, 0, 8); got != flat {
		t.Fatalf("Uniform topology changed cost: %d vs %d", got, flat)
	}
	cl := base.WithTopology(Clusters{Size: 4})
	near := cl.Cost(AccessProbe, 0, 1) // same cluster: 1 hop
	far := cl.Cost(AccessProbe, 0, 8)  // cross cluster: 4 hops
	if near != 4*4+100 {
		t.Fatalf("near-remote probe = %d, want %d", near, 4*4+100)
	}
	if far != 4*4+400 {
		t.Fatalf("far-remote probe = %d, want %d", far, 4*4+400)
	}
	if local := cl.Cost(AccessProbe, 3, 3); local != 4 {
		t.Fatalf("local probe = %d, want 4 (no remote multiplier)", local)
	}
	// Tree nodes are shared (home -1, forced remote): one hop regardless.
	if got, want := cl.Cost(AccessNode, 0, -1), base.Cost(AccessNode, 0, -1); got != want {
		t.Fatalf("node access under clusters = %d, want %d (shared objects stay 1 hop)", got, want)
	}
}
