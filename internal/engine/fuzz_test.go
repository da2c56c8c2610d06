package engine

import (
	"testing"

	"pools/internal/policy"
	"pools/internal/search"
)

// FuzzEngineSearch drives the engine over a scripted world decoded from
// the fuzz input: segment count, initial sizes, self index, search order,
// and termination rule all come from the bytes. The invariants are the
// protocol's contract, independent of configuration:
//
//   - a search never probes out of range and never runs past its
//     termination rule's budget (Bounded) or a covered-and-stable pool
//     (Coverage);
//   - Got > 0 implies the probed segment actually supplied elements, and
//     FoundAt is that segment;
//   - an aborted search reports Got == 0 and FoundAt == -1;
//   - Enter and Exit bracket every search exactly once.
func FuzzEngineSearch(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 0, 8, 0})
	f.Add([]byte{8, 1, 0, 255, 0, 0, 0, 0, 0, 1, 2})
	f.Add([]byte{3, 2, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0])%12 + 1
		self := int(data[1]) % n
		mode := data[2]
		segs := make([]int, n)
		for i := range segs {
			if 3+i < len(data) {
				segs[i] = int(data[3+i]) % 16
			}
		}
		sub := &fakeSub{segs: segs, self: self}

		var pol policy.Set
		switch mode % 3 {
		case 0:
			pol = policy.Set{Order: search.Linear}
		case 1:
			pol = policy.Set{Order: search.Random}
		case 2:
			pol = policy.Set{Control: policy.NewPerHandle(), Order: search.Linear}
		}
		budget := n * (int(mode/3)%3 + 1)
		e := New(Config{
			Self:     self,
			Segments: n,
			Policies: pol.WithDefaults(),
			Seed:     uint64(len(data)),
		}, sub, NewBounded(budget))

		total := 0
		for _, s := range segs {
			total += s
		}
		res := e.Search(int(mode)%4 + 1)

		if sub.enters != 1 || sub.exits != 1 {
			t.Fatalf("Enter/Exit = %d/%d, want exactly one bracket", sub.enters, sub.exits)
		}
		for _, s := range sub.probes {
			if s < 0 || s >= n {
				t.Fatalf("probe of out-of-range segment %d (n=%d)", s, n)
			}
		}
		if res.Got > 0 {
			if res.FoundAt < 0 || res.FoundAt >= n {
				t.Fatalf("successful search reports FoundAt=%d", res.FoundAt)
			}
			if total == 0 {
				t.Fatal("search obtained elements from an empty world")
			}
			if sub.reserved != 1 {
				t.Fatalf("reserved %d elements, want exactly 1", sub.reserved)
			}
		} else {
			if res.FoundAt != -1 {
				t.Fatalf("aborted search reports FoundAt=%d, want -1", res.FoundAt)
			}
			// Bounded termination: the probe count never exceeds the
			// budget (the rule is checked before every probe).
			if res.Examined > budget {
				t.Fatalf("aborted after %d probes, budget %d", res.Examined, budget)
			}
		}
		left := 0
		for _, s := range sub.segs {
			left += s
		}
		if left+sub.reserved != total {
			t.Fatalf("elements not conserved: %d left + %d reserved != %d initial", left, sub.reserved, total)
		}
	})
}
