package keyed

import "testing"

// TestKeyedKillDrainPreservesKeys checks a drain kill relocates every
// class intact, each still reachable by class from a survivor.
func TestKeyedKillDrainPreservesKeys(t *testing.T) {
	p := newPool(t, 4)
	h0 := p.Handle(0)
	for i := 0; i < 5; i++ {
		h0.Put("red", i)
	}
	for i := 0; i < 3; i++ {
		h0.Put("blue", 100+i)
	}
	if !p.Kill(0, true) {
		t.Fatal("kill refused")
	}
	if got := p.LenKey("red"); got != 5 {
		t.Errorf("LenKey(red) = %d after drain, want 5", got)
	}
	if got := p.LenKey("blue"); got != 3 {
		t.Errorf("LenKey(blue) = %d after drain, want 3", got)
	}
	// And remain reachable by class from a survivor.
	h1 := p.Handle(1)
	for i := 0; i < 5; i++ {
		if _, ok := h1.Get("red"); !ok {
			t.Fatalf("red element %d unreachable after drain kill", i)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok := h1.Get("blue"); !ok {
			t.Fatalf("blue element %d unreachable after drain kill", i)
		}
	}
	if p.Len() != 0 {
		t.Errorf("Len = %d after draining all classes, want 0", p.Len())
	}
}
