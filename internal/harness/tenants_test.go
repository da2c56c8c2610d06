package harness

import (
	"reflect"
	"strings"
	"testing"

	"pools/internal/workload"
)

func tenantTestCfg() Config {
	return Config{Trials: 1, Seed: 1989, Ops: 1500}
}

func TestTenantSweep(t *testing.T) {
	counts := []int{2}
	skews := []float64{0, 1.4}
	rows := TenantSweep(tenantTestCfg(), counts, skews)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Tenants != 2 || len(r.Points) != 2 {
			t.Fatalf("row %+v: want 2 tenants with 2 points", r)
		}
		worst := 0.0
		for _, p := range r.Points {
			if p.Ops == 0 {
				t.Errorf("tenant %d at skew %v completed no operations", p.Tenant, r.Skew)
			}
			if p.Procs == 0 || p.Lambda <= 0 {
				t.Errorf("tenant point not populated: %+v", p)
			}
			if !(p.P50 <= p.P99 && p.P99 <= p.P999) {
				t.Errorf("percentiles not ordered: %+v", p)
			}
			if p.Interference < 0 || p.Interference > 1 {
				t.Errorf("interference %v outside [0,1]", p.Interference)
			}
			if p.P99 > worst {
				worst = p.P99
			}
		}
		if r.WorstP99 != worst {
			t.Errorf("WorstP99 = %v, want max point p99 %v", r.WorstP99, worst)
		}
	}
	// Uniform tenants share the base rate; skew concentrates it on tenant
	// 0 and the hot tenant's tail is the one that grows.
	uniform, skewed := rows[0], rows[1]
	if uniform.Points[0].Lambda != uniform.Points[1].Lambda {
		t.Error("skew 0 must give equal per-tenant lambdas")
	}
	if skewed.Points[0].Lambda <= skewed.Points[1].Lambda {
		t.Error("skew must make tenant 0 the hot one")
	}
	if skewed.Points[0].P99 <= skewed.Points[1].P99 {
		t.Errorf("hot tenant p99 %v not above cold %v under skew",
			skewed.Points[0].P99, skewed.Points[1].P99)
	}

	// The sweep is deterministic in its Config.
	again := TenantSweep(tenantTestCfg(), counts, skews)
	if !reflect.DeepEqual(rows, again) {
		t.Error("TenantSweep is not deterministic")
	}
}

func TestRenderTenantsAndCSV(t *testing.T) {
	rows := TenantSweep(tenantTestCfg(), []int{2}, []float64{0.7})
	out, csv := tenantsReport(rows)
	for _, want := range []string{"worst-tenant p99", "lambda skew", "interf", "p999 µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 { // header + one line per tenant
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "tenants,skew,tenant,procs,lambda_per_proc") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestRealRunOpenLoop smokes the wall-clock open-loop driver: arrivals at
// a rate the host easily sustains, per-worker sojourn histograms
// populated for every completed operation.
func TestRealRunOpenLoop(t *testing.T) {
	wl := workload.Config{
		Procs:           4,
		TotalOps:        400,
		InitialElements: 32,
		Model:           workload.OpenLoop,
		AddFraction:     0.5,
		Arrivals:        workload.Arrivals{Lambda: 0.05, ServiceMean: 5},
		Tenants:         2,
		TenantSkew:      1,
	}
	res, err := RealRun(RealRunConfig{Workload: wl, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sojourns) != wl.Procs {
		t.Fatalf("got %d sojourn histograms, want %d", len(res.Sojourns), wl.Procs)
	}
	var n int64
	for i := range res.Sojourns {
		n += res.Sojourns[i].N()
	}
	if n != int64(wl.TotalOps) {
		t.Errorf("recorded %d sojourns, want %d (one per claimed op)", n, wl.TotalOps)
	}
}
