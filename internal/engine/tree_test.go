package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"pools/internal/policy"
	"pools/internal/search"
)

// treeSub is a fakeSub with the node-cost hook. It records node n's round
// at each charge and, when during is set, sets the node to during inside
// the charge, as another handle's raise landing while the access is
// charged (a simulated charge lets other processors run).
type treeSub struct {
	fakeSub
	tree   *Tree
	seen   []uint64
	during uint64
}

func (f *treeSub) ChargeNode(n int) {
	f.seen = append(f.seen, f.tree.Round(n))
	if f.during > 0 {
		f.tree.nodes[n].round.Store(f.during)
	}
}

// TestTreeConcurrentRaise checks the pool-shared round-counter tree the
// engine keeps. Handles raising one node at once leave it at the largest
// value raised, and a concurrent reader never sees it decrease. A raise
// made through one handle's engine is read through another's, and the
// substrate's node charge runs before each raise and each read.
func TestTreeConcurrentRaise(t *testing.T) {
	const segs, raises = 4, 20000
	var tree Tree
	engines := make([]*Engine, segs)
	subs := make([]*treeSub, segs)
	for i := range engines {
		subs[i] = &treeSub{fakeSub: fakeSub{segs: make([]int, segs), self: i}, tree: &tree}
		engines[i] = New(Config{
			Self: i, Segments: segs,
			Policies: policy.Set{Order: search.Tree}.WithDefaults(),
			Tree:     &tree,
		}, subs[i], NewBounded(segs))
	}
	if tree.Len() != search.NumTreeNodes(segs) {
		t.Fatalf("tree has %d counters, want %d", tree.Len(), search.NumTreeNodes(segs))
	}
	if n := engines[0].w.NumLeaves(); n != search.NumLeavesFor(segs) {
		t.Fatalf("NumLeaves = %d, want %d", n, search.NumLeavesFor(segs))
	}

	// The handles, released at once, raise node 1 through interleaved
	// ascending values; the largest, raises*segs, comes from the last
	// handle. Each raise must hold when its handle reads the node back.
	var stop atomic.Bool
	read := make(chan struct{})
	go func() {
		defer close(read)
		var last uint64
		for !stop.Load() {
			r := tree.Round(1)
			if r < last {
				t.Errorf("node 1 fell from %d to %d", last, r)
				return
			}
			last = r
		}
	}()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range raises {
				v := uint64(k*segs + i + 1)
				e.w.MaxRound(1, v)
				if r := tree.Round(1); r < v {
					t.Errorf("handle %d raised node 1 to %d, then read %d", i, v, r)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	stop.Store(true)
	<-read
	if r := tree.Round(1); r != raises*segs {
		t.Fatalf("node 1 ends at %d, want the largest raise %d", r, raises*segs)
	}

	// One handle's raise is read by another; the charge comes first.
	const leaf = 6
	engines[0].w.MaxRound(leaf, 9)
	if s := subs[0].seen; s[len(s)-1] != 0 {
		t.Fatalf("raise charged after the raise: the charge saw round %d", s[len(s)-1])
	}
	if r := engines[1].w.RoundOf(leaf); r != 9 {
		t.Fatalf("handle 1 reads %d, want handle 0's raise to 9", r)
	}
	subs[1].during = 12
	if r := engines[1].w.RoundOf(leaf); r != 12 {
		t.Fatalf("read returned %d before its charge's raise to 12", r)
	}
}
