package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true} // poolbench's run-everything name
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestExperimentsDocumented keeps the handbook in step with the
// registry: every experiment is named, in backquotes, in
// docs/EXPERIMENTS.md.
func TestExperimentsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if !strings.Contains(string(doc), "`"+e.Name+"`") {
			t.Errorf("experiment %q is not documented in docs/EXPERIMENTS.md", e.Name)
		}
	}
}
