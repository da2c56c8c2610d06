package main

import (
	"os"
	"path/filepath"
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
