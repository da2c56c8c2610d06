package harness

import (
	"bytes"
	"fmt"

	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/plot"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/trace"
	"pools/internal/workload"
)

// EventTraceBuf is the per-handle flight-recorder capacity the event-trace
// experiment attaches. Large enough that the pinned burst run never drops
// an event; EventTraceResult.Dropped reports if a custom config overflows.
const EventTraceBuf = 4096

// EventTraceResult holds one flight-recorder run: the full per-handle
// event timelines plus an event-density resampling for the terminal
// panels. The run uses the same clustered burst producer/consumer
// configuration as the controller-trajectory experiment, so the two
// views line up: where the control trace shows a consumer's steal
// fraction climbing, the event trace shows the probe and transfer storm
// that drove it.
type EventTraceResult struct {
	Kind      search.Kind
	Batch     int
	Producers map[int]bool
	// Timelines are the raw per-handle recorder snapshots on the virtual
	// clock, exportable with trace.ChromeJSON or trace.WriteCSV.
	Timelines []trace.Timeline
	// Density[h] counts handle h's recorded events per uniform
	// virtual-time bucket — the rows of the terminal panel.
	Density [][]int64
	// Transfers[h] and Crosses[h] are handle h's reserve/transfer and
	// cross-cluster probe event totals, for the summary table.
	Transfers []int64
	Crosses   []int64
	Stats     metrics.PoolStats
	Makespan  int64
	// Dropped is the total number of events lost to ring-buffer
	// wraparound across all handles (0 at the default EventTraceBuf).
	Dropped uint64
}

// EventTraceRun executes one burst producer/consumer trial on the
// clustered topology with the flight recorder attached to every handle,
// and resamples each handle's event stream into uniform time buckets.
// Producers are contiguous (as in the locality sweep), so consumer
// handles far from any producer show dense probe/transfer activity while
// producer tracks stay sparse — the asymmetry the density panel exists
// to make visible.
func EventTraceRun(cfg Config, kind search.Kind, producers, batch int) EventTraceResult {
	c := cfg.withDefaults()
	set, err := policy.Named("per-handle")
	if err != nil {
		panic(err) // programmer error: the name is a registry constant
	}
	w := c.workloadFor(workload.Burst)
	w.Producers = producers
	w.Arrangement = workload.Contiguous
	w.BatchSize = batch
	set.Order = kind
	res := sim.Run(sim.RunConfig{
		Workload: w,
		Costs:    c.Costs.WithTopology(numa.Clusters{Size: LocalityClusterSize}),
		Seed:     rng.SubSeed(c.Seed, 0), Policies: set,
		EventBuf: EventTraceBuf,
	})

	out := EventTraceResult{
		Kind:      kind,
		Batch:     batch,
		Producers: map[int]bool{},
		Timelines: res.Events,
		Stats:     res.Stats,
		Makespan:  res.Makespan,
	}
	for _, p := range workload.ProducerPositions(c.Procs, producers, workload.Contiguous) {
		out.Producers[p] = true
	}

	const buckets = 100
	end := res.Makespan
	if end < 1 {
		end = 1
	}
	for _, tl := range res.Events {
		out.Dropped += tl.Dropped
		density := make([]int64, buckets)
		var transfers, crosses int64
		for _, ev := range tl.Events {
			b := int(ev.TS * buckets / end)
			if b < 0 {
				b = 0
			}
			if b >= buckets {
				b = buckets - 1
			}
			density[b]++
			switch ev.Kind {
			case trace.ReserveTransfer:
				transfers++
			case trace.ProbeCross:
				crosses++
			}
		}
		out.Density = append(out.Density, density)
		out.Transfers = append(out.Transfers, transfers)
		out.Crosses = append(out.Crosses, crosses)
	}
	return out
}

// eventTraceReport draws the event-density panels — one row per handle
// over virtual time — and a per-handle activity table, footed by the
// run's one-line stats summary. Its CSV is the raw recorded events in
// long form (one row per event, merged across handles by virtual time)
// via trace.WriteCSV.
func eventTraceReport(r EventTraceResult) (text, csv string) {
	title := fmt.Sprintf("Flight recorder: events per handle over time (%s search, burst batch %d, %d-proc clusters)",
		r.Kind, r.Batch, LocalityClusterSize)
	body := plot.TracePanels(title, "handle", "events per bucket", r.Density, r.Producers, "P", "C")
	cols := []col[int]{
		count("handle", "", func(h int) int { return h }),
		str("role", "", func(h int) string { return handleRole(r.Producers, h) }),
		count("events", "", func(h int) int { return len(r.Timelines[h].Events) }),
		count("transfers", "", func(h int) int64 { return r.Transfers[h] }),
		count("cross probes", "", func(h int) int64 { return r.Crosses[h] }),
		count("dropped", "", func(h int) uint64 { return r.Timelines[h].Dropped }),
	}
	handles := make([]int, len(r.Timelines))
	for h := range handles {
		handles[h] = h
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, r.Timelines); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return body + "\n" + table(cols, handles) + "\n" + r.Stats.Summary() + "\n", buf.String()
}
