package workload

import (
	"fmt"
	"math"

	"pools/internal/rng"
)

// Churn is a seeded kill/revive schedule layered over a workload: the
// chaos driver kills one live process at a time (exponentially
// distributed gaps around KillEvery), holds it down for ReviveAfter,
// then re-admits it. One victim at a time keeps the schedule's effect
// measurable — each downtime window has a clean before/after throughput
// to compare — and matches the Dynamo-style hinted-handoff experiments
// the chaos harness models: a node departs, the survivors absorb its
// load, it rejoins.
//
// The zero value disables churn entirely; drivers must not charge any
// cost for a disabled schedule, so zero-churn runs stay byte-identical
// to pre-churn fingerprints.
type Churn struct {
	// KillEvery is the mean gap between a revive and the next kill:
	// virtual µs in the simulator, operations claimed from the shared
	// budget on the real pool (harness.RealRun). Zero or negative
	// disables churn.
	KillEvery int64
	// ReviveAfter is the downtime between a kill and its revive, in the
	// same unit. Zero revives at the driver's next tick.
	ReviveAfter int64
	// Drain selects the kill mode: true drains and redistributes the
	// victim's segment at kill time (the segment leaves the victim set);
	// false degrades it to a steal-only victim whose reserve drains
	// through the survivors' steals.
	Drain bool
	// MaxKills, when positive, caps the number of kills the schedule
	// issues (a bounded fault injection); zero means unbounded.
	MaxKills int
}

// Enabled reports whether the schedule injects any churn.
func (c Churn) Enabled() bool { return c.KillEvery > 0 }

// Validate rejects nonsensical schedules.
func (c Churn) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.ReviveAfter < 0 {
		return fmt.Errorf("workload: Churn.ReviveAfter = %d, need >= 0", c.ReviveAfter)
	}
	if c.MaxKills < 0 {
		return fmt.Errorf("workload: Churn.MaxKills = %d, need >= 0", c.MaxKills)
	}
	return nil
}

// ChurnGen draws one schedule's kill gaps and victims, deterministic for
// a seed. The gap stream and the victim stream are independent draws
// from one generator, so a schedule replays exactly under the same seed
// regardless of how the driver interleaves the two.
type ChurnGen struct {
	churn Churn
	r     *rng.Xoshiro256
	kills int
}

// Gen returns the schedule's generator for a seeded run.
func (c Churn) Gen(seed uint64) *ChurnGen {
	return &ChurnGen{churn: c, r: rng.NewXoshiro256(rng.SubSeed(seed, 0x6368))}
}

// NextGap draws the gap before the next kill (exponential with mean
// KillEvery, floored at 1), or -1 when the schedule is exhausted
// (MaxKills reached or churn disabled).
func (g *ChurnGen) NextGap() int64 {
	c := g.churn
	if !c.Enabled() || (c.MaxKills > 0 && g.kills >= c.MaxKills) {
		return -1
	}
	g.kills++
	u := g.r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	gap := int64(-float64(c.KillEvery) * math.Log(u))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// PickVictim draws the next kill's victim uniformly from the n
// processes. Drivers retry (the pool refuses to kill the last live
// member) or skip already-dead picks; the draw is consumed either way,
// keeping the schedule deterministic under churn races.
func (g *ChurnGen) PickVictim(n int) int { return g.r.Intn(n) }
