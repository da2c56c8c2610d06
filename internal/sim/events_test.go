package sim

// Flight-recorder coverage on the simulated substrate: a seeded run's
// event timeline is deterministic (the recorder stamps the virtual
// clock), so the Chrome trace-event export can be pinned byte-for-byte
// by a golden file — the committed schema `make trace-smoke` and the
// poolbench -trace path are validated against. Regenerate after an
// intentional protocol or exporter change with
//
//	go test ./internal/sim -run TestGoldenChromeTrace -update-golden
//
// and review the diff like any other golden update.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pools/internal/numa"
	"pools/internal/trace"
	"pools/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace files")

// goldenRun is the pinned 2-handle configuration: a consumer-heavy mix
// over a small seed forces searches, steals, reserve/transfer edges,
// and termination verdicts onto both tracks.
func goldenRun() RunResult {
	return Run(RunConfig{
		Workload: workload.Config{
			Procs:           2,
			Model:           workload.RandomOps,
			AddFraction:     0.3,
			TotalOps:        80,
			InitialElements: 6,
		},
		Costs:    numa.ButterflyCosts(),
		Seed:     7,
		EventBuf: 512,
	})
}

func TestGoldenChromeTrace(t *testing.T) {
	res := goldenRun()
	if len(res.Events) != 2 {
		t.Fatalf("timelines = %d, want 2", len(res.Events))
	}
	for _, tl := range res.Events {
		if len(tl.Events) == 0 {
			t.Fatalf("handle %d recorded no events", tl.Handle)
		}
	}

	var buf bytes.Buffer
	if err := trace.ChromeJSON(&buf, res.Events); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace diverged from golden file (len %d vs %d); "+
			"if the protocol or exporter changed intentionally, rerun with -update-golden",
			buf.Len(), len(want))
	}

	// The run is deterministic end to end: a second run must produce the
	// identical timeline, not merely the same shape.
	again := goldenRun()
	var buf2 bytes.Buffer
	if err := trace.ChromeJSON(&buf2, again.Events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("seeded trace is not deterministic across runs")
	}
}

// goldenChaosRun is the pinned churn configuration: a short steady run
// with a drain-kill schedule aggressive enough that kills, epoch bumps,
// and revives all land on the timeline.
func goldenChaosRun() RunResult {
	return Run(RunConfig{
		Workload: workload.Config{
			Procs:           3,
			Model:           workload.RandomOps,
			AddFraction:     0.5,
			TotalOps:        300,
			InitialElements: 24,
		},
		Costs:    numa.ButterflyCosts(),
		Seed:     7,
		EventBuf: 2048,
		Churn:    workload.Churn{KillEvery: 400, ReviveAfter: 300, Drain: true, MaxKills: 4},
	})
}

// TestGoldenChromeChaosTrace pins the churn run's Chrome export the same
// way TestGoldenChromeTrace pins the steady one, and requires every
// membership kind to appear: member_leave and epoch_bump from the drain
// kills, member_join from the revives.
func TestGoldenChromeChaosTrace(t *testing.T) {
	res := goldenChaosRun()
	counts := map[trace.Kind]int{}
	for _, tl := range res.Events {
		for _, ev := range tl.Events {
			counts[ev.Kind]++
		}
	}
	for _, k := range []trace.Kind{trace.MemberLeave, trace.MemberJoin, trace.EpochBump} {
		if counts[k] == 0 {
			t.Errorf("no %s events recorded; churn schedule too gentle to pin", k)
		}
	}
	if counts[trace.MemberLeave] != counts[trace.EpochBump] {
		t.Errorf("drain kills must bump the epoch once each: %d leaves, %d bumps",
			counts[trace.MemberLeave], counts[trace.EpochBump])
	}
	if len(res.Churn) == 0 {
		t.Fatal("run reported no churn events")
	}

	var buf bytes.Buffer
	if err := trace.ChromeJSON(&buf, res.Events); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_chaos_trace.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chaos Chrome trace diverged from golden file (len %d vs %d); "+
			"if the protocol or exporter changed intentionally, rerun with -update-golden",
			buf.Len(), len(want))
	}

	again := goldenChaosRun()
	var buf2 bytes.Buffer
	if err := trace.ChromeJSON(&buf2, again.Events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("seeded chaos trace is not deterministic across runs")
	}
}

// TestGoldenTracesHoldNoLocalHitFeedback checks both committed Chrome
// goldens for the recorder's owner-path contract: a feedback event is a
// search's outcome, so none may read as a local hit (got >= 0 with no
// probe examined). A regression that traces local hits again fails here
// by name rather than only as a byte diff.
func TestGoldenTracesHoldNoLocalHitFeedback(t *testing.T) {
	for _, name := range []string{"golden_trace.json", "golden_chaos_trace.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				TS   int64  `json:"ts"`
				TID  int    `json:"tid"`
				Args struct {
					Arg1 int32 `json:"arg1"`
					Arg2 int32 `json:"arg2"`
				} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		feedback := 0
		for _, ev := range doc.TraceEvents {
			if ev.Name != trace.Feedback.String() {
				continue
			}
			feedback++
			if ev.Args.Arg1 >= 0 && ev.Args.Arg2 == 0 {
				t.Errorf("%s: local-hit feedback (got %d, examined 0) on handle %d at ts %d",
					name, ev.Args.Arg1, ev.TID, ev.TS)
			}
		}
		if feedback == 0 {
			t.Errorf("%s holds no feedback events; the check would be vacuous", name)
		}
	}
}

// TestEventTimelineContent sanity-checks the recorded protocol against
// the run's aggregate stats: every steal the stats counted appears as a
// reserve/transfer edge, and searches are balanced begin/end.
func TestEventTimelineContent(t *testing.T) {
	res := goldenRun()
	var transfers, begins, ends int64
	var moved int64
	for _, tl := range res.Events {
		if tl.Dropped != 0 {
			t.Errorf("handle %d dropped %d events; grow EventBuf", tl.Handle, tl.Dropped)
		}
		for _, ev := range tl.Events {
			switch ev.Kind {
			case trace.ReserveTransfer:
				transfers++
				moved += int64(ev.Arg2)
			case trace.SearchBegin:
				begins++
			case trace.SearchEnd:
				ends++
			}
		}
	}
	if transfers != res.Stats.Steals {
		t.Errorf("reserve_transfer events = %d, stats.Steals = %d", transfers, res.Stats.Steals)
	}
	if want := int64(res.Stats.ElementsStolen.Sum()); moved != want {
		t.Errorf("transferred elements on timeline = %d, stats say %d", moved, want)
	}
	if begins != ends {
		t.Errorf("unbalanced searches: %d begins, %d ends", begins, ends)
	}
	if begins == 0 {
		t.Error("golden run performed no searches; config too gentle to pin the protocol")
	}
}
