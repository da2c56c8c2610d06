package harness

import (
	"runtime"
	"slices"
	"testing"

	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/workload"
)

// TestStartLive observes a wall-clock run from the outside while its
// workers are mutating their collectors — the exact access pattern the
// introspection endpoint performs — so the race detector can vouch for
// the publish-under-mutex design.
func TestStartLive(t *testing.T) {
	const total = 20000
	live := StartLive(RealRunConfig{
		Workload: workload.Config{
			Procs:           4,
			Model:           workload.RandomOps,
			AddFraction:     0.5,
			TotalOps:        total,
			InitialElements: 64,
		},
		Policies: policy.Set{Order: search.Tree},
		Seed:     3,
		TraceBuf: 256,
	})

	// Hammer the observer API until the run finishes, yielding once per
	// poll: at GOMAXPROCS=1 a poll loop that never yields leaves the run's
	// workers only the scheduler's preemption slices.
	var lastOps int64
	for alive := true; alive; {
		select {
		case <-live.Done():
			alive = false
		default:
		}
		st := live.Stats()
		if st.Ops() < lastOps {
			// Merged published snapshots only ever grow.
			t.Fatalf("live ops went backwards: %d -> %d", lastOps, st.Ops())
		}
		lastOps = st.Ops()
		for _, tl := range live.Timelines() {
			_ = len(tl.Events)
		}
		_ = live.Timeline(0)
		runtime.Gosched()
	}

	res, err := live.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Ops() + res.Stats.Aborts; got != total {
		t.Errorf("ops+aborts = %d, want %d", got, total)
	}
	// After completion Stats returns the authoritative final merge.
	final := live.Stats()
	if final.Ops() != res.Stats.Ops() {
		t.Errorf("post-done Stats = %d ops, result says %d", final.Ops(), res.Stats.Ops())
	}
	if len(live.Timelines()) != 4 {
		t.Errorf("timelines = %d, want 4", len(live.Timelines()))
	}
	// A local hit records nothing, so a handle that never had to search
	// may end with an empty timeline; what holds on every schedule is
	// that the per-handle view is the same snapshot as the pool-wide one.
	if tl := live.Timeline(0); tl.Handle != 0 {
		t.Errorf("Timeline(0).Handle = %d, want 0", tl.Handle)
	}
	for i, want := range live.Timelines() {
		if got := live.Timeline(i).Events; !slices.Equal(got, want.Events) {
			t.Errorf("Timeline(%d) holds %d events, Timelines()[%d] holds %d", i, len(got), i, len(want.Events))
		}
	}
	if tl := live.Timeline(99); len(tl.Events) != 0 {
		t.Error("out-of-range handle returned events")
	}
}

// TestEventTraceRun pins the density resampling: buckets hold every
// recorded event exactly once and the table columns agree with the raw
// timelines.
func TestEventTraceRun(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 11, Procs: 8, Ops: 2000, Fill: 64}
	r := EventTraceRun(cfg, search.Tree, 5, 1)
	if len(r.Timelines) != 8 || len(r.Density) != 8 {
		t.Fatalf("got %d timelines, %d density rows, want 8", len(r.Timelines), len(r.Density))
	}
	if r.Dropped != 0 {
		t.Errorf("dropped %d events at EventTraceBuf=%d", r.Dropped, EventTraceBuf)
	}
	for h, tl := range r.Timelines {
		var sum int64
		for _, c := range r.Density[h] {
			sum += c
		}
		if sum != int64(len(tl.Events)) {
			t.Errorf("handle %d: density sums to %d, timeline has %d events", h, sum, len(tl.Events))
		}
	}
	out, csv := eventTraceReport(r)
	if out == "" {
		t.Error("empty render")
	}
	if len(csv) == 0 || csv[:3] != "ts," {
		t.Error("CSV missing header")
	}
}
