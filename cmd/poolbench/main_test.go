package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "fig3", "-trials", "1", "-ops", "800", "-fill", "64"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"## fig3", "Figure 3", "seg  0 P", "queueing delay"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "nope"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunAppExperimentSmallDepth(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "app", "-depth", "1", "-trials", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "global-stack") || !strings.Contains(out.String(), "yes") {
		t.Errorf("app output incomplete:\n%s", out.String())
	}
}

func TestRunCSVOutput(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "fig7", "-trials", "1", "-ops", "600", "-fill", "64", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "producers,stolen_per_steal_unbalanced") {
		t.Errorf("CSV block missing:\n%s", out.String())
	}
}

func TestRunBurstExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "burst", "-trials", "1", "-ops", "800", "-fill", "64", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"## burst", "batch size", "µs/element", "batch,per_element_us"} {
		if !strings.Contains(got, want) {
			t.Errorf("burst output missing %q", want)
		}
	}
}

func TestRunLocalityExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "locality", "-trials", "1", "-ops", "600", "-fill", "64", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"## locality", "clustered", "vs best blind", "order,delay_us"} {
		if !strings.Contains(got, want) {
			t.Errorf("locality output missing %q", want)
		}
	}
}

func TestRunHierExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "hier", "-trials", "1", "-ops", "600", "-fill", "64", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"## hier", "cross-cluster probe fraction", "vs best flat",
		"order,topology,delay_us,cross_probe_frac",
		// Both topologies appear: the two-level cluster sweep and the
		// three-level nested sweep, distinguishable by the CSV column.
		",clusters-4,", ",nested-2-8,",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("hier output missing %q", want)
		}
	}
}

func TestRunKeyedLocExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "keyedloc", "-trials", "1", "-ops", "600", "-fill", "64", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"## keyedloc", "Keyed locality sweep", "cross-frac", "order,delay_us,probes_per_get"} {
		if !strings.Contains(got, want) {
			t.Errorf("keyedloc output missing %q", want)
		}
	}
}

func TestRunTenantsExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "tenants", "-trials", "1", "-ops", "1500", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"## tenants", "worst-tenant p99 sojourn",
		"tenants,skew,tenant,procs,lambda_per_proc,p50_us,p99_us,p999_us,steal_interference,ops",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("tenants output missing %q", want)
		}
	}
}

func TestRunTraceExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "trace", "-trials", "1", "-ops", "1200", "-fill", "96", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"## trace", "Controller trajectories", "final steal fraction", "handle,role,sample",
		// The flight-recorder half: density panels, activity table, raw log.
		"Flight recorder", "events per bucket", "cross probes", "ts,handle,event,arg1,arg2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
}

func TestRunTraceDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out strings.Builder
	if err := run([]string{"-trace", path, "-ops", "600", "-procs", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("no write confirmation:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump is not Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("dump holds no events")
	}
	if err := run([]string{"-trace", filepath.Join(path, "nope", "out.json")}, &out); err == nil {
		t.Error("uncreatable trace path accepted")
	}
}

func TestRunDebugAddr(t *testing.T) {
	var out strings.Builder
	// No -serve: the server closes as soon as the run completes; the test
	// only pins that the address line and the final summary render.
	if err := run([]string{"-debug-addr", "127.0.0.1:0", "-ops", "2000", "-procs", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"introspection: http://127.0.0.1:", "run complete", "ops=2000"} {
		if !strings.Contains(got, want) {
			t.Errorf("debug-addr output missing %q:\n%s", want, got)
		}
	}
	if err := run([]string{"-debug-addr", "256.0.0.1:bad"}, &out); err == nil {
		t.Error("unbindable debug address accepted")
	}
}
