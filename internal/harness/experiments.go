package harness

import (
	"fmt"
	"strings"

	"pools/internal/search"
	"pools/internal/workload"
)

// Experiment is one entry of the evaluation: poolbench -exp Name prints
// Title and Run's text, and with -csv its CSV ("" for the experiments
// with no machine-readable form).
type Experiment struct {
	Name, Title string
	Run         func(Config) (text, csv string)
}

// Experiments lists every experiment in presentation order; -exp all
// runs them in this order. docs/EXPERIMENTS.md documents each.
var Experiments = []Experiment{
	{"fig2", "average operation time vs job mix (tree search)", func(c Config) (string, string) {
		return Fig2(c).report()
	}},
	{"fig3", "segment sizes over time: linear search, contiguous producers", figTrace("Figure 3", search.Linear, workload.Contiguous)},
	{"fig4", "segment sizes over time: linear search, balanced producers", figTrace("Figure 4", search.Linear, workload.Balanced)},
	{"fig5", "segment sizes over time: tree search, contiguous producers", figTrace("Figure 5", search.Tree, workload.Contiguous)},
	{"fig6", "segment sizes over time: tree search, balanced producers", figTrace("Figure 6", search.Tree, workload.Balanced)},
	{"fig7", "elements stolen per steal vs producers (tree search, errata orientation)", func(c Config) (string, string) {
		return Fig7(c).report()
	}},
	{"algos", "Section 4.3 algorithm comparison", func(c Config) (string, string) {
		return table(algoCols, AlgoCompare(c)), ""
	}},
	{"arrange", "Section 4.2 contiguous vs balanced producers", func(c Config) (string, string) {
		var b strings.Builder
		for _, kind := range search.Kinds() {
			b.WriteString(table(arrangeCols, ArrangementCompare(c, kind, 5)))
			b.WriteByte('\n')
		}
		return b.String(), ""
	}},
	{"delay", "Section 4.3 remote-delay sweep", func(c Config) (string, string) {
		return table(delayCols, DelaySweep(c)), ""
	}},
	{"steal", "steal-half vs steal-one ablation", func(c Config) (string, string) {
		return table(stealCols, StealPolicyAblation(c)), ""
	}},
	{"roles", "dynamic producer roles extension (Section 3.3)", func(c Config) (string, string) {
		return table(rolesCols, DynamicRoles(c)), ""
	}},
	{"burst", "batch operations: per-element time vs batch size (burst workload)", func(c Config) (string, string) {
		return burstReport(search.Tree, BurstSweep(c, search.Tree, 5, BurstBatchSweep()))
	}},
	{"policy", "steal/placement policy sweep: half vs one vs proportional vs adaptive (burst + fluctuating workloads)", func(c Config) (string, string) {
		text, csv := policyReport(search.Tree, PolicySweep(c, search.Tree, 5, BurstBatchSweep()))
		ftext, fcsv := fluctReport(16, PolicyFluctuate(c, search.Tree, 5, 16, []int{0, 100, 25}))
		return text + "\n" + ftext, csv + "\n" + fcsv
	}},
	{"locality", "locality-aware victim order vs the blind searches under clustered remote delays", func(c Config) (string, string) {
		return localityReport(LocalitySweep(c, LocalityScales()))
	}},
	{"hier", "hierarchical cluster-first stealing vs flat and locality orders (cross-cluster probe fraction; two-level and three-level topologies)", func(c Config) (string, string) {
		text, csv := hierReport(HierSweep(c, LocalityScales()), fmt.Sprintf("%d-proc clusters", LocalityClusterSize))
		dtext, dcsv := hierReport(HierDeepSweep(c, LocalityScales()), DeepTopology().Name()+" three-level topology")
		return text + "\n" + dtext, csv + "\n" + dcsv
	}},
	{"keyedloc", "keyed pool sweep orders on a clustered topology (ring vs locality vs hierarchical rank)", func(c Config) (string, string) {
		return keyedLocReport(KeyedLocalitySweep(c, LocalityScales()))
	}},
	{"trace", "controller trajectories & flight-recorder event density per handle over virtual time", func(c Config) (string, string) {
		text, csv := controlTraceReport(ControlTraceRun(c, search.Tree, 5, 1))
		etext, ecsv := eventTraceReport(EventTraceRun(c, search.Tree, 5, 1))
		return text + "\n" + etext, csv + "\n" + ecsv
	}},
	{"tenants", "open-loop multi-tenant arrivals: per-tenant sojourn percentiles and steal interference", func(c Config) (string, string) {
		return tenantsReport(TenantSweep(c, DefaultTenantCounts(), DefaultTenantSkews()))
	}},
	{"chaos", "failure injection: throughput dip and recovery under kill/revive churn", func(c Config) (string, string) {
		return chaosReport(search.Tree, ChaosSweep(c, search.Tree, DefaultChaosSchedules()))
	}},
	{"app", "Section 4.4 tic-tac-toe work-list comparison", func(c Config) (string, string) {
		rows := App(c, DefaultAppCosts(), c.withDefaults().Depth, []int{1, 2, 4, 8, 16}, AppImpls())
		return RenderApp(rows), ""
	}},
}

// figTrace runs one of Figures 3-6: a single traced trial with 5
// producers.
func figTrace(figure string, kind search.Kind, arr workload.Arrangement) func(Config) (string, string) {
	return func(c Config) (string, string) {
		return FigTrace(c, figure, kind, arr, 5).render(), ""
	}
}
