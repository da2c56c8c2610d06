package policy

import (
	"testing"

	"pools/internal/search"
)

// TestStealAmountBounds checks every StealAmount implementation returns a
// legal transfer size in [1, n] across a grid of victim sizes and
// requester appetites, and matches its closed-form law.
func TestStealAmountBounds(t *testing.T) {
	impls := []struct {
		name string
		s    StealAmount
		want func(n, want int) int
	}{
		{"half", Half{}, func(n, _ int) int { return (n + 1) / 2 }},
		{"one", One{}, func(_, _ int) int { return 1 }},
		{"proportional", Proportional{}, func(n, want int) int {
			if want > n {
				return n
			}
			return want
		}},
		{"proportional-2x", Proportional{Factor: 2}, func(n, want int) int {
			if 2*want > n {
				return n
			}
			return 2 * want
		}},
		{"adaptive-start", NewAdaptive(), func(n, want int) int {
			// Fresh adaptive starts at the steal-half fraction, floored at
			// the requester's appetite.
			k := (n + 1) / 2
			if want > k {
				k = want
			}
			if k > n {
				k = n
			}
			return k
		}},
	}
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			for n := 1; n <= 130; n++ {
				for _, want := range []int{1, 2, 7, 16, 64, 1000} {
					got := im.s.Amount(n, want)
					if got < 1 || got > n {
						t.Fatalf("%s.Amount(%d, %d) = %d, outside [1, %d]", im.name, n, want, got, n)
					}
					if exp := im.want(n, want); got != exp {
						t.Fatalf("%s.Amount(%d, %d) = %d, want %d", im.name, n, want, got, exp)
					}
				}
			}
		})
	}
}

// TestPlacementGiftSplit checks each Placement's Gift split law on a grid
// of batch sizes and hungry-searcher counts.
func TestPlacementGiftSplit(t *testing.T) {
	impls := []struct {
		name string
		p    Placement
		want func(n, hungry int) int
	}{
		{"local", Local{}, func(_, _ int) int { return 0 }},
		{"gift-one", GiftOne{}, func(n, hungry int) int {
			if hungry < n {
				return hungry
			}
			return n
		}},
		{"gift-half", GiftHalf{}, func(n, hungry int) int {
			if hungry == 0 {
				return 0
			}
			return (n + 1) / 2
		}},
		{"gift-all", GiftAll{}, func(n, hungry int) int {
			if hungry == 0 {
				return 0
			}
			return n
		}},
	}
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			// A nil law never gifts, and pools allocate no mailboxes
			// for it: Local's plan must be the empty one.
			plan := im.p.Plan(0, 4)
			if (plan.Gift == nil) != (im.name == "local") || plan.Candidates != nil {
				t.Fatalf("%s plan = %+v", im.name, plan)
			}
			for n := 1; n <= 65; n++ {
				for hungry := 0; hungry <= 17; hungry++ {
					got := 0
					if plan.Gift != nil {
						got = plan.Gift(n, hungry)
					}
					if exp := im.want(n, hungry); got != exp {
						t.Fatalf("%s Gift(%d, %d) = %d, want %d", im.name, n, hungry, got, exp)
					}
					if got < 0 || got > n {
						t.Fatalf("%s Gift(%d, %d) = %d, outside [0, %d]", im.name, n, hungry, got, n)
					}
				}
			}
		})
	}
}

// TestAdaptiveRaisesFractionUnderStealPressure drives the controller with
// a window of steal-heavy feedback and checks the fraction rises, then
// with steal-free feedback and checks it decays — both within bounds.
func TestAdaptiveRaisesFractionUnderStealPressure(t *testing.T) {
	a := NewAdaptive()
	if f := a.StealFraction(); f != 0.5 {
		t.Fatalf("fresh adaptive fraction = %v, want 0.5", f)
	}
	// Every remove steals: fraction must rise toward 1 and never exceed it.
	prev := a.StealFraction()
	for w := 0; w < 10; w++ {
		for i := 0; i < adaptWindow; i++ {
			a.Observe(Feedback{Stole: true, Examined: 4, Got: 8})
		}
		f := a.StealFraction()
		if f < prev {
			t.Fatalf("fraction fell under steal pressure: %v -> %v", prev, f)
		}
		if f > 1 {
			t.Fatalf("fraction exceeded 1: %v", f)
		}
		prev = f
	}
	if prev != 1 {
		t.Fatalf("fraction after sustained steal pressure = %v, want 1", prev)
	}
	// No remove steals: fraction must decay and respect the floor.
	for w := 0; w < 20; w++ {
		for i := 0; i < adaptWindow; i++ {
			a.Observe(Feedback{Got: 1})
		}
	}
	if f := a.StealFraction(); f < 1.0/16-1e-9 || f >= 0.5 {
		t.Fatalf("fraction after sustained local removes = %v, want decayed within [1/16, 0.5)", f)
	}
}

// TestAdaptiveBatchRecommendation checks long searches raise the batch
// recommendation (capped), aborts lower it, and the recommendation never
// drops below the configured size.
func TestAdaptiveBatchRecommendation(t *testing.T) {
	a := NewAdaptive()
	if b := a.BatchSize(16); b != 16 {
		t.Fatalf("fresh BatchSize(16) = %d, want 16", b)
	}
	// Expensive searches, no aborts: recommendation grows to the cap.
	for w := 0; w < 5; w++ {
		for i := 0; i < adaptWindow; i++ {
			a.Observe(Feedback{Stole: true, Examined: 8, Got: 4})
		}
	}
	if b := a.BatchSize(16); b != batchCap {
		t.Fatalf("BatchSize(16) under long searches = %d, want %d", b, batchCap)
	}
	if b := a.BatchSize(128); b != 128 {
		t.Fatalf("BatchSize(128) = %d, want configurations above the cap unchanged", b)
	}
	// A window with aborts steps the recommendation back down.
	for i := 0; i < adaptWindow; i++ {
		a.Observe(Feedback{Aborted: true})
	}
	if b := a.BatchSize(16); b != 32 {
		t.Fatalf("BatchSize(16) after aborts = %d, want 32", b)
	}
	if b := a.BatchSize(0); b < 1 {
		t.Fatalf("BatchSize(0) = %d, want >= 1", b)
	}
}

// TestNamed checks the registry constructs every advertised policy and
// that adaptive sets from separate calls do not share controller state.
func TestNamed(t *testing.T) {
	for _, name := range Names() {
		set, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		_, steal := set.WithDefaults().ForHandle(0)
		if steal == nil {
			t.Fatalf("Named(%q) resolves no StealAmount", name)
		}
		if steal.Name() == "" {
			t.Fatalf("Named(%q) steal policy has empty name", name)
		}
	}
	if _, err := Named("nonsense"); err == nil {
		t.Fatal("Named(nonsense) succeeded")
	}
	a1, _ := Named("adaptive")
	a2, _ := Named("adaptive")
	if a1.Control == nil || a2.Control == nil {
		t.Fatal("adaptive set missing controller")
	}
	if a1.Control == a2.Control {
		t.Fatal("adaptive sets share a controller; trials would contaminate each other")
	}
	for i := 0; i < 10*adaptWindow; i++ {
		a1.Control.Spawn(0).Observe(Feedback{Stole: true, Examined: 4})
	}
	if f := a2.Control.Spawn(0).StealFraction(); f != 0.5 {
		t.Fatalf("observing one adaptive set moved another's fraction to %v", f)
	}
}

// TestSetDefaultsAndName checks WithDefaults fills every slot and Name
// renders something stable for tables.
func TestSetDefaultsAndName(t *testing.T) {
	s := Set{}.WithDefaults()
	if s.Steal.Name() != "steal-half" || s.Order != search.Linear || s.Place.Name() != "local" {
		t.Fatalf("defaults = %s/%s/%s", s.Steal.Name(), s.Order.Name(), s.Place.Name())
	}
	s = Set{Order: search.Tree, Place: GiftAll{}}.WithDefaults()
	if s.Order != search.Tree || s.Place.Name() != "gift-all" {
		t.Fatalf("explicit slots overwritten: %s/%s", s.Order.Name(), s.Place.Name())
	}
	if got := (Set{}).Name(); got != "default" {
		t.Fatalf("zero Set.Name() = %q", got)
	}
	ad, _ := Named("adaptive")
	if got := ad.Name(); got != "adaptive" {
		t.Fatalf("adaptive Set.Name() = %q", got)
	}
	if got := (Set{Control: NewPerHandle(), Order: search.Tree}).Name(); got != "per-handle,order=tree" {
		t.Fatalf("per-handle Set.Name() = %q", got)
	}
	if got := (Set{Steal: One{}, Control: NewPerHandle()}).Name(); got != "steal-one,ctl=per-handle" {
		t.Fatalf("steal-one with per-handle control Set.Name() = %q", got)
	}
	if w := search.Random.Plan(2, 8, 42, nil).Searcher; w.Kind() != search.Random {
		t.Fatalf("Kind.Plan searcher kind = %v", w.Kind())
	}
}

// TestKindOrderNames pins the names the paper's algorithms carry as
// victim orders, bare and as a hierarchical inner order: the CSVs and
// traces print them. Both must plan the kind's searcher.
func TestKindOrderNames(t *testing.T) {
	want := map[search.Kind]string{search.Linear: "linear", search.Random: "random", search.Tree: "tree"}
	for _, k := range search.Kinds() {
		if got := k.Name(); got != want[k] {
			t.Errorf("%v.Name() = %q, want %q", k, got, want[k])
		}
		hier := HierarchicalOrder{Inner: k}
		if got := hier.Name(); got != "hier-"+want[k] {
			t.Errorf("HierarchicalOrder{Inner: %v}.Name() = %q, want %q", k, got, "hier-"+want[k])
		}
		bare, wrapped := k.Plan(0, 4, 1, nil), hier.Plan(0, 4, 1, nil)
		if bare.Searcher.Kind() != k || wrapped.Searcher.Kind() != k || bare.Tree != (k == search.Tree) || wrapped.Tree != bare.Tree {
			t.Errorf("%v plans %v (tree %v), hier plans %v (tree %v)", k, bare.Searcher.Kind(), bare.Tree, wrapped.Searcher.Kind(), wrapped.Tree)
		}
	}
}
