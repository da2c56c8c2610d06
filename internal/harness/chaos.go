package harness

import (
	"fmt"

	"pools/internal/plot"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// This file measures the pool under failure injection: the chaos driver
// (sim.RunConfig.Churn) kills one processor at a time on a seeded
// schedule and revives it after a configured downtime, and the sweep
// reports how far throughput dips while a member is down and how long
// the survivors take to absorb the loss — the availability companion to
// the paper's steady-state throughput tables. Two kill modes bracket
// the design space: drain redistributes the victim's segment at kill
// time (paying the relocation up front), steal-only leaves the reserve
// in place for the survivors' steals to drain (paying in search time).

// Chaos measurement windows, on the virtual clock. The throughput
// curve is the windowed difference of the driver's cumulative-ops
// samples; recovery is declared when the windowed rate is back within
// chaosRecoverFrac of the zero-churn baseline.
const (
	chaosRateWindow  = 500 // µs per throughput window (5 driver ticks)
	chaosRecoverFrac = 0.9
)

// ChaosSchedule is one swept failure-injection configuration.
type ChaosSchedule struct {
	Churn workload.Churn
	Label string
}

// DefaultChaosSchedules returns the swept schedules: three downtime
// lengths, each in both kill modes, with a mean gap long enough that
// downtime windows rarely overlap their recovery tails.
func DefaultChaosSchedules() []ChaosSchedule {
	var out []ChaosSchedule
	for _, drain := range []bool{true, false} {
		mode := "steal-only"
		if drain {
			mode = "drain"
		}
		for _, down := range []int64{500, 2000, 8000} {
			out = append(out, ChaosSchedule{
				Churn: workload.Churn{KillEvery: 3000, ReviveAfter: down, Drain: drain},
				Label: fmt.Sprintf("%s/%dµs", mode, down),
			})
		}
	}
	return out
}

// ChaosRow is one schedule's averaged measurements.
type ChaosRow struct {
	Schedule ChaosSchedule
	// BaselineRate is the zero-churn throughput (completed ops per
	// virtual ms) of the identical workload, the yardstick dips and
	// recoveries are measured against.
	BaselineRate float64
	// MeanRate is the overall throughput under churn (ops per ms).
	MeanRate float64
	// DipFraction is the mean worst-case throughput loss per downtime
	// window: 1 - (minimum windowed rate while the victim is down) /
	// baseline, averaged over kills. 0 = churn invisible, 1 = stalled.
	DipFraction float64
	// RecoveryTime is the mean virtual µs from a revive until the
	// windowed rate is back to chaosRecoverFrac of baseline, over the
	// kills whose recovery completed inside the run.
	RecoveryTime float64
	// Recovered of Kills counts downtime windows whose post-revive rate
	// regained the baseline before the run ended.
	Recovered, Kills int
	MakespanMean     float64
}

// ChaosSweep measures each schedule against its own zero-churn
// baseline, averaging cfg.Trials seeded trials of the steady random-ops
// workload (50% adds — the mix with no drift, so the throughput curve
// is flat except where churn bends it).
func ChaosSweep(cfg Config, kind search.Kind, schedules []ChaosSchedule) []ChaosRow {
	c := cfg.withDefaults()
	runTrial := func(seed uint64, churn workload.Churn) sim.RunResult {
		w := c.workloadFor(workload.RandomOps)
		w.AddFraction = 0.5
		return sim.Run(sim.RunConfig{
			Workload: w, Policies: policy.Set{Order: kind}, Costs: c.Costs, Seed: seed, Churn: churn,
		})
	}
	var out []ChaosRow
	for _, sched := range schedules {
		row := ChaosRow{Schedule: sched}
		n := float64(c.Trials)
		dipTrials := 0.0
		var recSum float64
		for trial := 0; trial < c.Trials; trial++ {
			seed := rng.SubSeed(c.Seed, trial)
			base := runTrial(seed, workload.Churn{})
			baseRate := rate(float64(base.Stats.Ops()), float64(base.Makespan))
			res := runTrial(seed, sched.Churn)
			row.BaselineRate += 1000 * baseRate / n
			row.MeanRate += 1000 * rate(float64(res.Stats.Ops()), float64(res.Makespan)) / n
			row.MakespanMean += float64(res.Makespan) / n
			m := measureChurn(res, baseRate)
			row.Kills += m.kills
			row.Recovered += m.recovered
			if m.kills > 0 {
				row.DipFraction += m.meanDip
				dipTrials++
			}
			if m.recovered > 0 {
				recSum += m.recoverySum
			}
		}
		if dipTrials > 0 {
			row.DipFraction /= dipTrials
		}
		if row.Recovered > 0 {
			row.RecoveryTime = recSum / float64(row.Recovered)
		}
		out = append(out, row)
	}
	return out
}

// rate guards a per-µs throughput division.
func rate(ops, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	return ops / dt
}

// churnMeasure is one trial's dip/recovery extraction.
type churnMeasure struct {
	kills       int
	recovered   int
	meanDip     float64 // mean over kills of the worst windowed dip
	recoverySum float64 // summed recovery µs over recovered kills
}

// measureChurn walks the trial's kill/revive pairs and reads the
// throughput curve (windowed differences of the driver's cumulative-ops
// samples) around each downtime window against the zero-churn baseline
// rate (ops per µs).
func measureChurn(res sim.RunResult, baseRate float64) churnMeasure {
	var m churnMeasure
	if baseRate <= 0 {
		return m
	}
	end := res.OpsTrace.MaxTime()
	windowRate := func(t int64) float64 {
		s := res.OpsTrace.SampleAt([]int64{t - chaosRateWindow, t})
		return rate(float64(s[1]-s[0]), chaosRateWindow)
	}
	events := res.Churn
	for i, ev := range events {
		if ev.Revive {
			continue
		}
		m.kills++
		// The matching revive is the next event (one victim at a time);
		// a kill the run ended on has no revive to recover from.
		reviveAt := end
		revived := false
		if i+1 < len(events) && events[i+1].Revive {
			reviveAt = events[i+1].Time
			revived = true
		}
		// Worst dip across the downtime window (and one window past the
		// revive, so a dip the sampling straddles is not missed).
		minRate := baseRate
		for t := ev.Time + chaosRateWindow; t <= reviveAt+chaosRateWindow && t <= end; t += chaosRateWindow {
			if r := windowRate(t); r < minRate {
				minRate = r
			}
		}
		m.meanDip += 1 - minRate/baseRate
		if !revived {
			continue
		}
		// Recovery: first window past the revive back at recoverFrac of
		// baseline.
		for t := reviveAt + chaosRateWindow; t <= end; t += chaosRateWindow {
			if windowRate(t) >= chaosRecoverFrac*baseRate {
				m.recovered++
				m.recoverySum += float64(t - reviveAt)
				break
			}
		}
	}
	if m.kills > 0 {
		m.meanDip /= float64(m.kills)
	}
	return m
}

var chaosCols = []col[ChaosRow]{
	str("schedule", "", func(r ChaosRow) string { return r.Schedule.Label }),
	str("", "mode", func(r ChaosRow) string {
		if r.Schedule.Churn.Drain {
			return "drain"
		}
		return "steal_only"
	}),
	count("", "kill_every_us", func(r ChaosRow) int64 { return r.Schedule.Churn.KillEvery }),
	count("", "downtime_us", func(r ChaosRow) int64 { return r.Schedule.Churn.ReviveAfter }),
	count("kills", "kills", func(r ChaosRow) int { return r.Kills }),
	num("base ops/ms", "baseline_ops_per_ms", 2, func(r ChaosRow) float64 { return r.BaselineRate }),
	num("churn ops/ms", "churn_ops_per_ms", 2, func(r ChaosRow) float64 { return r.MeanRate }),
	scaled("dip %", pct, "dip_fraction", 4, func(r ChaosRow) float64 { return r.DipFraction }),
	num("recovery (µs)", "recovery_us", 0, func(r ChaosRow) float64 { return r.RecoveryTime }),
	{head: "recovered", csvHead: "recovered",
		cell:    func(r ChaosRow) string { return fmt.Sprintf("%d/%d", r.Recovered, r.Kills) },
		csvCell: func(r ChaosRow) string { return fmt.Sprintf("%d", r.Recovered) }},
	scaled("makespan (ms)", ms, "makespan_us", 0, func(r ChaosRow) float64 { return r.MakespanMean }),
}

// chaosReport draws the chaos sweep — throughput dip vs downtime, one
// series per kill mode — the per-schedule table, and a greppable
// recovery footer (make chaos-smoke validates it), and the sweep as CSV.
func chaosReport(kind search.Kind, rows []ChaosRow) (text, csv string) {
	chart := plot.LineChart(
		fmt.Sprintf("Chaos: worst throughput dip vs downtime (%s search)", kind),
		"downtime before revive (virt µs)", "throughput dip (% of baseline)",
		70, 16,
		seriesBy(rows, func(r ChaosRow) string {
			if r.Schedule.Churn.Drain {
				return "drain kill"
			}
			return "steal-only kill"
		}, func(r ChaosRow) float64 { return float64(r.Schedule.Churn.ReviveAfter) },
			func(r ChaosRow) float64 { return r.DipFraction * 100 }),
	)
	recovered, kills := 0, 0
	for _, r := range rows {
		recovered += r.Recovered
		kills += r.Kills
	}
	footer := fmt.Sprintf("recovered %d/%d downtime windows to %.0f%% of baseline throughput\n",
		recovered, kills, chaosRecoverFrac*100)
	return chart + "\n" + table(chaosCols, rows) + footer, csvOf(chaosCols, rows)
}
