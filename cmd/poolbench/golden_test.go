package main

// Golden output: poolbench's full `-exp all -csv` output at reduced
// size, pinned byte for byte. It covers every experiment's table and
// CSV block, so any change to how an experiment is computed or rendered
// shows up as a diff here. After an intentional output change,
// regenerate with
//
//	go test ./cmd/poolbench -run TestGoldenOutput -update
//
// and review the diff of testdata/all.golden like any other change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/all.golden")

func TestGoldenOutput(t *testing.T) {
	// The tables hold float averages. Go may fuse multiply-adds into FMA
	// instructions on other architectures, which changes the last digit
	// of some cells, so the bytes are pinned on amd64 only.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden output is pinned on amd64; FMA fusion on %s may change float digits", runtime.GOARCH)
	}
	var buf bytes.Buffer
	args := []string{"-exp", "all", "-trials", "1", "-ops", "600", "-fill", "64", "-depth", "1", "-csv"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "all.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got := strings.Split(buf.String(), "\n")
	lines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(lines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(lines) {
			w = lines[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(%d lines, want %d)",
				golden, i+1, g, w, len(got), len(lines))
		}
	}
}
