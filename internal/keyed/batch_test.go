package keyed

import (
	"slices"
	"testing"
)

// TestKeyedPutAllGetNLocal checks batches stay inside their class: a
// local GetN drains its own class's bucket and leaves the other's.
func TestKeyedPutAllGetNLocal(t *testing.T) {
	p := newPool(t, 4)
	h := p.Handle(0)
	h.PutAll("a", []int{1, 2, 3, 4})
	h.PutAll("b", []int{10})
	if p.LenKey("a") != 4 || p.LenKey("b") != 1 {
		t.Fatalf("LenKey = %d/%d, want 4/1", p.LenKey("a"), p.LenKey("b"))
	}
	if out := h.GetN("a", 10); len(out) != 4 {
		t.Fatalf("GetN(a,10) returned %d, want class a's 4", len(out))
	}
	if p.LenKey("a") != 0 || p.Len() != 1 {
		t.Fatalf("pool left with LenKey(a)=%d Len=%d", p.LenKey("a"), p.Len())
	}
}

// TestKeyedGetNKeyMiss is the key-miss fallback: a GetN for an absent
// class completes its sweeps and returns nil without disturbing other
// classes.
func TestKeyedGetNKeyMiss(t *testing.T) {
	p, err := New[string, int](Options{Segments: 4, Sweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	producer := p.Handle(2)
	producer.PutAll("present", []int{1, 2, 3})
	consumer := p.Handle(0)
	if out := consumer.GetN("absent", 5); out != nil {
		t.Fatalf("GetN of absent class = %v, want nil", out)
	}
	if p.LenKey("present") != 3 {
		t.Fatalf("key-miss sweep disturbed other classes: LenKey = %d", p.LenKey("present"))
	}
	if out := consumer.GetN("present", 5); len(out) == 0 {
		t.Fatal("GetN of present class found nothing")
	}
}

// TestKeyedGetNOrder pins which elements a GetN returns, and in what
// order: a local GetN pops the newest first; a stealing GetN returns the
// newest of the victim's transferred share, newest first, and parks the
// rest of that share locally.
func TestKeyedGetNOrder(t *testing.T) {
	p := newPool(t, 4)
	h := p.Handle(0)
	h.PutAll("a", []int{1, 2, 3, 4, 5})
	if out := h.GetN("a", 3); !slices.Equal(out, []int{5, 4, 3}) {
		t.Fatalf("local GetN(a,3) = %v, want [5 4 3]", out)
	}
	if out := h.GetN("a", 10); !slices.Equal(out, []int{2, 1}) {
		t.Fatalf("local GetN(a,10) = %v, want [2 1]", out)
	}

	p.Handle(2).PutAll("a", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	// Steal-half moves the victim's five oldest: 4, 3, 2 are returned
	// and 0, 1 park in the thief's segment.
	if out := h.GetN("a", 3); !slices.Equal(out, []int{4, 3, 2}) {
		t.Fatalf("stealing GetN(a,3) = %v, want [4 3 2]", out)
	}
	if p.SegmentLen(0) != 2 || p.SegmentLen(2) != 5 {
		t.Fatalf("after the steal: thief holds %d, victim %d; want 2 and 5", p.SegmentLen(0), p.SegmentLen(2))
	}
	if out := h.GetN("a", 10); !slices.Equal(out, []int{1, 0}) {
		t.Fatalf("local GetN of the parked share = %v, want [1 0]", out)
	}
}
