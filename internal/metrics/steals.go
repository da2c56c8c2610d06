package metrics

import "fmt"

// OpKind identifies the kind of pool operation being measured.
type OpKind int

// Operation kinds. The paper measures adds and removes separately (typical
// undelayed times were ~70 µs per add and ~110 µs per remove on the
// Butterfly) and attributes steal costs to the removes that triggered them.
const (
	OpAdd OpKind = iota + 1
	OpRemove
)

// String returns "add" or "remove".
func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	default:
		return "unknown"
	}
}

// PoolStats aggregates every per-operation measurement the paper reports
// for one experiment run (one trial). It is not safe for concurrent use;
// concurrent collectors keep one PoolStats per processor and Merge at the
// end of the run.
//
// Counts are exact; timings may be sampled. Every Record method bumps its
// counters, but folds its durations into the timing summaries and OpLat
// only when they are non-negative: a caller passes Untimed for an
// operation it counted without reading the clock. The simulator times
// every operation on its virtual clock; the real pool (internal/core)
// times a random sample of about one operation in sixteen per handle, so
// there a timing summary's N() is a sample count and the exact call counts
// are AddCalls, RemoveCalls and Aborts.
type PoolStats struct {
	AddTime    Summary // duration of timed add operations (µs, virtual or real)
	RemoveTime Summary // duration of timed remove operations, including searches
	StealTime  Summary // duration of the search+steal portion of timed removes
	AbortTime  Summary // duration of timed removes aborted by the livelock rule

	SegmentsExamined Summary // segments probed per steal (every steal)
	ElementsStolen   Summary // elements obtained per successful steal (every steal)

	Adds         int64 // completed add operations
	Removes      int64 // completed remove operations (element obtained)
	LocalRemoves int64 // removes satisfied by the local segment
	Steals       int64 // removes that required a successful steal
	Aborts       int64 // removes aborted by the all-searching rule

	// Call counts: one per add or completed remove operation, however
	// many elements it moved — the per-operation denominators of OpCount,
	// StealFraction and the time averages, kept exact however the
	// timings are sampled.
	AddCalls    int64 // Put/PutAll calls that placed at least one element
	RemoveCalls int64 // Get/GetN calls that obtained at least one element

	// Directed-add extension (paper Section 5): elements handed straight
	// to a searching process instead of the giver's local segment.
	DirectedGives    int64 // adds delivered into another process's mailbox
	DirectedReceives int64 // removes satisfied by a mailbox gift

	// Batch operations (PutAll/GetN): each batch op is one call in
	// AddCalls/RemoveCalls (and at most one timing observation) but counts
	// every element it moved in Adds/Removes, so Adds/AddCalls is the
	// achieved add batch size.
	BatchAdds    int64 // PutAll calls that placed at least one element
	BatchRemoves int64 // GetN calls that obtained at least one element

	// Topology accounting (hierarchical-steal extension): every remote
	// segment probe — steal searches and Director placement sweeps alike —
	// is classified by the pool's numa.Topology. A probe is "cross" when
	// its hop distance exceeds 1 (it left the prober's cluster), the
	// dominant cost on loosely-coupled machines.
	RemoteProbes int64 // probes of segments other than the prober's own
	CrossProbes  int64 // remote probes that crossed a cluster boundary

	// Tenant accounting (multi-tenant extension): when the policy set
	// carries a tenant partition (policy.Grouped), the engine classifies
	// every successful steal from a remote segment by whether the victim
	// belonged to another tenant. ForeignSteals/TenantSteals is the
	// steal-interference measure of `poolbench -exp tenants`.
	TenantSteals  int64 // successful remote steals classified by a tenant partition
	ForeignSteals int64 // classified steals whose victim belonged to another tenant

	// OpLat is the per-operation latency histogram: one observation per
	// timed operation (adds, removes — local, stolen, batch — and aborts),
	// recorded with the operation's duration in whole µs (virtual or
	// wall-clock; the timing summaries keep the fraction). Recording is
	// three atomic adds, so it stays on the 0-alloc hot path; percentiles
	// are read at report time, after Merge.
	OpLat LatencyHist
}

// RecordProbe classifies one remote segment probe: cross reports whether
// it crossed a cluster boundary (hop distance > 1).
func (s *PoolStats) RecordProbe(cross bool) {
	s.RemoteProbes++
	if cross {
		s.CrossProbes++
	}
}

// CrossProbeFraction returns the fraction of remote probes that crossed a
// cluster boundary — the headline measure of the hierarchical-steal and
// topology-aware-placement policies (0 when nothing was probed, or when
// the pool ran without a topology).
func (s *PoolStats) CrossProbeFraction() float64 {
	if s.RemoteProbes == 0 {
		return 0
	}
	return float64(s.CrossProbes) / float64(s.RemoteProbes)
}

// Untimed is the duration a caller passes to a Record method for an
// operation it counted but did not time: the counters move, the timing
// summaries and OpLat do not.
const Untimed = -1.0

// timed folds one timed operation of d µs into a duration summary and the
// latency histogram; an Untimed (negative) d is skipped.
func (s *PoolStats) timed(sum *Summary, d float64) {
	if d < 0 {
		return
	}
	sum.Add(d)
	s.OpLat.Record(int64(d))
}

// RecordAdd records one completed add and its duration d (µs, or
// Untimed).
func (s *PoolStats) RecordAdd(d float64) {
	s.Adds++
	s.AddCalls++
	s.timed(&s.AddTime, d)
}

// RecordLocalRemove records a remove satisfied locally.
func (s *PoolStats) RecordLocalRemove(d float64) {
	s.Removes++
	s.RemoveCalls++
	s.LocalRemoves++
	s.timed(&s.RemoveTime, d)
}

// RecordStealRemove records a remove that needed a steal: total duration d,
// steal portion sd (both µs, or Untimed), number of segments examined, and
// elements obtained.
func (s *PoolStats) RecordStealRemove(d, sd float64, examined, stolen int) {
	s.Removes++
	s.RemoveCalls++
	s.recordSteal(sd, examined, stolen)
	s.timed(&s.RemoveTime, d)
}

// recordSteal counts one successful steal and, when timed, its search+steal
// portion sd.
func (s *PoolStats) recordSteal(sd float64, examined, stolen int) {
	s.Steals++
	s.SegmentsExamined.Add(float64(examined))
	s.ElementsStolen.Add(float64(stolen))
	if sd >= 0 {
		s.StealTime.Add(sd)
	}
}

// RecordBatchAdd records one PutAll of n elements taking d in total.
func (s *PoolStats) RecordBatchAdd(d float64, n int) {
	s.BatchAdds++
	s.Adds += int64(n)
	s.AddCalls++
	s.timed(&s.AddTime, d)
}

// RecordBatchLocalRemove records one GetN satisfied by the local segment:
// n elements obtained in one operation of duration d.
func (s *PoolStats) RecordBatchLocalRemove(d float64, n int) {
	s.BatchRemoves++
	s.Removes += int64(n)
	s.LocalRemoves += int64(n)
	s.RemoveCalls++
	s.timed(&s.RemoveTime, d)
}

// RecordBatchStealRemove records one GetN that needed a steal: total
// duration d, steal portion sd, segments examined, elements transferred by
// the steal, and n elements returned to the caller.
func (s *PoolStats) RecordBatchStealRemove(d, sd float64, examined, stolen, n int) {
	s.BatchRemoves++
	s.Removes += int64(n)
	s.RemoveCalls++
	s.recordSteal(sd, examined, stolen)
	s.timed(&s.RemoveTime, d)
}

// RecordAbort records a remove aborted because every participant was
// searching (the paper's livelock resolution), and the time spent before
// the abort was detected.
func (s *PoolStats) RecordAbort(d float64) {
	s.Aborts++
	s.timed(&s.AbortTime, d)
}

// RecordStealVictim classifies one successful remote steal against the
// pool's tenant partition: foreign reports whether the victim segment
// belonged to a different tenant than the thief. Called by the engine
// only when the policy set carries a partition (policy.Grouped).
func (s *PoolStats) RecordStealVictim(foreign bool) {
	s.TenantSteals++
	if foreign {
		s.ForeignSteals++
	}
}

// Merge folds another collector into s.
func (s *PoolStats) Merge(o *PoolStats) {
	s.AddTime.Merge(o.AddTime)
	s.RemoveTime.Merge(o.RemoveTime)
	s.StealTime.Merge(o.StealTime)
	s.AbortTime.Merge(o.AbortTime)
	s.SegmentsExamined.Merge(o.SegmentsExamined)
	s.ElementsStolen.Merge(o.ElementsStolen)
	s.Adds += o.Adds
	s.Removes += o.Removes
	s.LocalRemoves += o.LocalRemoves
	s.Steals += o.Steals
	s.Aborts += o.Aborts
	s.AddCalls += o.AddCalls
	s.RemoveCalls += o.RemoveCalls
	s.DirectedGives += o.DirectedGives
	s.DirectedReceives += o.DirectedReceives
	s.BatchAdds += o.BatchAdds
	s.BatchRemoves += o.BatchRemoves
	s.RemoteProbes += o.RemoteProbes
	s.CrossProbes += o.CrossProbes
	s.TenantSteals += o.TenantSteals
	s.ForeignSteals += o.ForeignSteals
	s.OpLat.Merge(&o.OpLat)
}

// Ops returns the number of completed element movements (adds + removes).
// Under single-element operations this is also the operation count; under
// batching it counts elements. The experiment drivers charge their
// operation budget one unit per element moved and one per abort (refunding
// a batch's unmoved remainder), so Ops()+Aborts == TotalOps at any batch
// size. See OpCount for the per-operation denominator.
func (s *PoolStats) Ops() int64 { return s.Adds + s.Removes }

// OpCount returns the number of operations performed — adds, removes, and
// aborted removes — counting one per call: a batch PutAll/GetN is one
// operation however many elements it moves. Equals Ops()+Aborts under
// single-element operations.
func (s *PoolStats) OpCount() int64 {
	return s.AddCalls + s.RemoveCalls + s.Aborts
}

// timeTotal estimates the total duration of every operation: each timing
// summary's mean scaled by its kind's exact call count. When every call is
// timed (the simulator) each term is exactly the summary's Sum.
func (s *PoolStats) timeTotal() float64 {
	return s.AddTime.Mean()*float64(s.AddCalls) +
		s.RemoveTime.Mean()*float64(s.RemoveCalls) +
		s.AbortTime.Mean()*float64(s.Aborts)
}

// AvgOpTime returns the mean duration over all operations — adds,
// removes, and aborted removes — the quantity plotted in the paper's
// Figure 2.
func (s *PoolStats) AvgOpTime() float64 {
	n := s.OpCount()
	if n == 0 {
		return 0
	}
	return s.timeTotal() / float64(n)
}

// AvgTimePerElement returns the mean operation time divided across the
// elements moved: total time over adds, removes, and aborts, per element
// added or removed. With single-element operations it equals AvgOpTime;
// under batch operations it is the amortized per-element cost the batch
// API exists to lower.
func (s *PoolStats) AvgTimePerElement() float64 {
	n := s.Adds + s.Removes + s.Aborts
	if n == 0 {
		return 0
	}
	return s.timeTotal() / float64(n)
}

// StealFraction returns the fraction of completed remove *operations*
// that required a steal ("the percentage of remove operations that
// required a steal"). Remove operations are counted per call (a GetN is
// one operation), so the fraction stays comparable between batched and
// single-element runs.
func (s *PoolStats) StealFraction() float64 {
	if s.RemoveCalls == 0 {
		return 0
	}
	return float64(s.Steals) / float64(s.RemoveCalls)
}

// StealInterference returns the fraction of tenant-classified steals whose
// victim belonged to another tenant — how much of one tenant's backlog is
// drained (or plundered) by the others. 0 when the pool ran without a
// tenant partition.
func (s *PoolStats) StealInterference() float64 {
	if s.TenantSteals == 0 {
		return 0
	}
	return float64(s.ForeignSteals) / float64(s.TenantSteals)
}

// Summary renders the collector's headline numbers as one line —
// element movements, steals, aborts, the steal-interference and
// cross-probe fractions, and the per-op latency quantiles — the shared
// format behind poolbench's report footers and the introspection
// endpoint's expvar snapshot, so every surface prints the same digest.
func (s *PoolStats) Summary() string {
	return fmt.Sprintf(
		"ops=%d steals=%d aborts=%d interference=%.3f cross_probe=%.3f p50=%.0fµs p99=%.0fµs p999=%.0fµs",
		s.Ops(), s.Steals, s.Aborts, s.StealInterference(), s.CrossProbeFraction(),
		s.OpLat.P50(), s.OpLat.P99(), s.OpLat.P999())
}

// MixAchieved returns the fraction of completed element movements that
// were adds, the x-axis of Figure 2 for the producer/consumer series.
func (s *PoolStats) MixAchieved() float64 {
	ops := s.Ops()
	if ops == 0 {
		return 0
	}
	return float64(s.Adds) / float64(ops)
}
