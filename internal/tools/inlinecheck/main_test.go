package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const src = `package p

type T[K any] struct{ d *D }

func (t *T[K]) Put() {
	t.d.Delay()
}

func (t *T[K]) Get() {
	t.d.Delay()
}

func plain() {}
`

func TestParseDiagnostics(t *testing.T) {
	in := strings.Join([]string{
		"# pools/internal/core",
		"internal/core/handle.go:163:6: can inline (*sampler).begin",
		"internal/core/handle.go:224:20: inlining call to numa.(*Delayer).Delay",
		"/src/internal/keyed/keyed.go:386:40: inlining call to engine.(*Membership).Place",
		"garbage: inlining call to nowhere",
	}, "\n")
	got, err := parseDiagnostics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []inlined{
		{"internal/core/handle.go", 224, "numa.(*Delayer).Delay"},
		{"/src/internal/keyed/keyed.go", 386, "engine.(*Membership).Place"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCheck(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "p", "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	rs := []rule{
		{"p/x.go", "T.Put", []string{"(*D).Delay"}},
		{"p/x.go", "T.Get", []string{"(*D).Delay"}},
		{"p/x.go", "plain", nil},
	}
	// Put's call (line 6) is inlined; Get's (line 10) is not, and a
	// report on a line outside every function counts for none.
	diags := []inlined{
		{"p/x.go", 6, "(*D).Delay"},
		{"/abs/p/x.go", 12, "(*D).Delay"},
	}
	errs := check(root, rs, diags)
	if len(errs) != 1 || !strings.Contains(errs[0], "T.Get: call to (*D).Delay is not inlined") {
		t.Errorf("errs = %q, want one for T.Get", errs)
	}
	diags = append(diags, inlined{"/abs/p/x.go", 10, "(*D).Delay"})
	if errs := check(root, rs, diags); len(errs) != 0 {
		t.Errorf("all inlined: errs = %q", errs)
	}
	errs = check(root, []rule{{"p/x.go", "T.Gone", []string{"(*D).Delay"}}}, diags)
	if len(errs) != 1 || !strings.Contains(errs[0], "no function T.Gone") {
		t.Errorf("missing function: errs = %q", errs)
	}
}

// TestRulesNameRealFunctions guards the rule table against renames: with
// no diagnostics every rule must fail on inlining, never on a missing
// file or function.
func TestRulesNameRealFunctions(t *testing.T) {
	for _, e := range check(filepath.Join("..", "..", ".."), rules, nil) {
		if !strings.Contains(e, "is not inlined") {
			t.Error(e)
		}
	}
}

// TestRulesCoverOwnerPathStats pins the rows that keep stats and
// controller feedback off the call path: every core add and local remove
// inlines its stats Record method; every core TryGetLocal/Get/GetN, keyed
// Get and the keyed remove path behind Get, GetN and GetAny inlines
// ObserveLocal for its local hit; and the core and keyed remove paths
// inline Observe for their slow-path outcome.
func TestRulesCoverOwnerPathStats(t *testing.T) {
	want := map[string][]string{
		"internal/core/handle.go Handle.Put":         {add},
		"internal/core/handle.go Handle.PutAll":      {batchAdd},
		"internal/core/handle.go Handle.TryPut":      {add},
		"internal/core/handle.go Handle.TryGetLocal": {localRemove, local},
		"internal/core/handle.go Handle.Get":         {localRemove, local},
		"internal/core/handle.go Handle.GetN":        {batchRemove, local},
		"internal/keyed/keyed.go Handle.Get":         {local},
		"internal/core/handle.go Handle.remove":      {observe},
		"internal/keyed/keyed.go Handle.remove":      {local, observe},
	}
	for _, r := range rules {
		for _, c := range want[r.file+" "+r.fn] {
			if !slices.Contains(r.calls, c) {
				t.Errorf("%s %s: rule does not require %s", r.file, r.fn, c)
			}
		}
		delete(want, r.file+" "+r.fn)
	}
	for k := range want {
		t.Errorf("no rule for %s", k)
	}
}
