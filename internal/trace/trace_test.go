package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestKindNames pins the Kind → export-name table: every kind below
// numKinds has a non-empty, unique snake_case name, and out-of-range
// kinds degrade to "unknown".
func TestKindNames(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindInvalid; k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, name)
		}
		seen[name] = k
		if strings.ToLower(name) != name || strings.Contains(name, " ") {
			t.Errorf("kind name %q is not snake_case", name)
		}
	}
	if got := Kind(200).String(); got != "unknown" {
		t.Errorf("out-of-range kind name = %q, want unknown", got)
	}
}

// TestRecorderWraparound fills a small ring past capacity and checks
// the snapshot keeps exactly the newest events, oldest first, with the
// overwritten remainder counted as dropped.
func TestRecorderWraparound(t *testing.T) {
	var now int64
	r := NewRecorder(3, 8, func() int64 { now++; return now })
	for i := int32(0); i < 20; i++ {
		r.Record(ProbeNear, i, i*2)
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("Events len = %d, want 8", len(evs))
	}
	for i, ev := range evs {
		want := int32(12 + i) // events 12..19 survive
		if ev.Arg1 != want || ev.Arg2 != want*2 || ev.Kind != ProbeNear {
			t.Fatalf("event %d = %+v, want Arg1=%d", i, ev, want)
		}
		if i > 0 && ev.TS <= evs[i-1].TS {
			t.Fatalf("timestamps not increasing at %d: %d then %d", i, evs[i-1].TS, ev.TS)
		}
	}

	tl := r.Timeline()
	if tl.Handle != 3 || len(tl.Events) != 8 || tl.Dropped != 12 {
		t.Fatalf("Timeline = handle %d, %d events, %d dropped; want 3, 8, 12",
			tl.Handle, len(tl.Events), tl.Dropped)
	}
}

// TestRecorderMembershipWraparound drives the membership kinds through
// a wrapping ring: a kill/relocate/revive cycle repeated past capacity
// must surface only the newest transitions, kinds intact, with the
// overwritten prefix counted — the flight recorder's contract does not
// bend for the chaos path.
func TestRecorderMembershipWraparound(t *testing.T) {
	var now int64
	r := NewRecorder(1, 4, func() int64 { now++; return now })
	for cycle := int32(0); cycle < 5; cycle++ {
		r.Record(MemberLeave, cycle, 1)
		r.Record(EpochBump, cycle*2+1, 7)
		r.Record(MemberJoin, cycle, 0)
	}
	if got := r.Dropped(); got != 11 {
		t.Fatalf("Dropped = %d, want 11", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	want := []Kind{MemberJoin, MemberLeave, EpochBump, MemberJoin}
	for i, ev := range evs {
		if ev.Kind != want[i] {
			t.Errorf("event %d kind = %s, want %s", i, ev.Kind, want[i])
		}
	}
	// The surviving tail is the final cycle plus the prior revive.
	if evs[1].Arg1 != 4 || evs[2].Arg1 != 9 || evs[3].Arg1 != 4 {
		t.Errorf("surviving args wrong: %+v", evs)
	}
}

// TestRecorderPartialFill checks the pre-wrap snapshot: fewer events
// than capacity come back in insertion order with nothing dropped.
func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder(0, 16, nil)
	r.Record(GiftSend, 1, 4)
	r.Record(GiftRecv, -1, 4)
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != GiftSend || evs[1].Kind != GiftRecv {
		t.Fatalf("Events = %+v", evs)
	}
}

// TestRecorderTinyCapacity clamps capacity to one slot rather than
// panicking on a degenerate configuration.
func TestRecorderTinyCapacity(t *testing.T) {
	r := NewRecorder(0, 0, nil)
	r.Record(SearchBegin, 1, 0)
	r.Record(SearchEnd, 1, 0)
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != SearchEnd {
		t.Fatalf("Events = %+v, want single SearchEnd", evs)
	}
}

// TestRecorderConcurrentRecordDump hammers one recorder with a writer
// and two snapshotting readers; under -race this pins the record-vs-
// dump safety the live /trace endpoint depends on. Each snapshot must
// also be internally consistent: timestamps non-decreasing.
func TestRecorderConcurrentRecordDump(t *testing.T) {
	var now int64
	var nowMu sync.Mutex
	clock := func() int64 { nowMu.Lock(); now++; v := now; nowMu.Unlock(); return v }
	r := NewRecorder(0, 64, clock)
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := int32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				r.Record(ReserveTransfer, i%8, i)
			}
		}
	}()
	for reader := 0; reader < 2; reader++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				evs := r.Events()
				for j := 1; j < len(evs); j++ {
					if evs[j].TS < evs[j-1].TS {
						t.Errorf("snapshot out of order: %d after %d", evs[j].TS, evs[j-1].TS)
						return
					}
				}
				r.Dropped()
				r.Timeline()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestRecordAllocFree pins the recorder's own contract: the first Record
// allocates the ring, once, and Record on a warm ring performs zero heap
// allocations.
func TestRecordAllocFree(t *testing.T) {
	// AllocsPerRun warms up with one untimed call, so the first Record is
	// measured on a recorder built inside the run, net of building one.
	var fresh *Recorder
	clock := func() int64 { return 7 }
	built := testing.AllocsPerRun(10, func() { fresh = NewRecorder(0, 256, clock) })
	first := testing.AllocsPerRun(10, func() {
		fresh = NewRecorder(0, 256, clock)
		fresh.Record(ProbeNear, 1, 1)
	})
	if first-built != 1 {
		t.Errorf("first Record: %.2f allocs, want 1 (the ring)", first-built)
	}
	r := NewRecorder(0, 256, clock)
	r.Record(ProbeNear, 1, 1)
	if avg := testing.AllocsPerRun(200, func() { r.Record(ProbeCross, 2, 3) }); avg != 0 {
		t.Errorf("Record: %.2f allocs/op, want 0", avg)
	}
}

// TestRecorderEmptyRing pins the lazily allocated ring's empty state: a
// recorder that never recorded reports nothing and snapshots empty.
func TestRecorderEmptyRing(t *testing.T) {
	r := NewRecorder(5, 64, nil)
	if n, d := r.Len(), r.Dropped(); n != 0 || d != 0 {
		t.Fatalf("Len = %d, Dropped = %d, want 0, 0", n, d)
	}
	if evs := r.Events(); len(evs) != 0 {
		t.Fatalf("Events = %+v, want none", evs)
	}
	if tl := r.Timeline(); tl.Handle != 5 || len(tl.Events) != 0 || tl.Dropped != 0 {
		t.Fatalf("Timeline = %+v, want handle 5 and nothing recorded", tl)
	}
	if tls := Collect(r); len(tls) != 1 || len(tls[0].Events) != 0 {
		t.Fatalf("Collect = %+v, want one empty timeline", tls)
	}
}

// TestCollect skips nil recorders and snapshots the rest.
func TestCollect(t *testing.T) {
	a := NewRecorder(0, 4, nil)
	b := NewRecorder(2, 4, nil)
	a.Record(ProbeNear, 1, 0)
	tls := Collect(a, nil, b)
	if len(tls) != 2 || tls[0].Handle != 0 || tls[1].Handle != 2 {
		t.Fatalf("Collect = %+v", tls)
	}
}

// TestChromeJSONStructure builds a hand-rolled two-handle timeline and
// checks the exporter's structural promises: valid JSON, metadata
// tracks, searches paired into "X" slices with ring colors, aborted
// searches renamed, instants carrying their args, and determinism
// across repeated exports.
func TestChromeJSONStructure(t *testing.T) {
	tls := []Timeline{
		{Handle: 0, Events: []Event{
			{TS: 10, Kind: SearchBegin, Arg1: 1},
			{TS: 12, Kind: ProbeNear, Arg1: 1, Arg2: 0},
			{TS: 15, Kind: EscalateRing, Arg1: 2, Arg2: 3},
			{TS: 18, Kind: ProbeCross, Arg1: 3, Arg2: 5},
			{TS: 19, Kind: ReserveTransfer, Arg1: 3, Arg2: 5},
			{TS: 20, Kind: SearchEnd, Arg1: 5, Arg2: 2},
		}},
		{Handle: 1, Events: []Event{
			{TS: 30, Kind: SearchBegin, Arg1: 1},
			{TS: 33, Kind: TerminationAborted, Arg1: 1},
			{TS: 34, Kind: SearchEnd, Arg1: 0, Arg2: 1},
		}},
	}
	var buf bytes.Buffer
	if err := ChromeJSON(&buf, tls); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	var meta, slices, instants int
	var sawAborted, sawCrossSlice bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			slices++
			args, _ := ev["args"].(map[string]any)
			if args == nil || args["want"] == nil || args["got"] == nil || args["ring"] == nil {
				t.Errorf("slice missing want/got/ring args: %v", ev)
			}
			if ev["name"] == "search_aborted" {
				sawAborted = true
			}
			if ev["cname"] == "bad" { // ring 2 color
				sawCrossSlice = true
			}
		case "i":
			instants++
			if ev["s"] != "t" {
				t.Errorf("instant not thread-scoped: %v", ev)
			}
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if meta != 3 { // process_name + one thread_name per handle
		t.Errorf("metadata events = %d, want 3", meta)
	}
	if slices != 2 {
		t.Errorf("search slices = %d, want 2", slices)
	}
	if instants != 5 { // 4 instants on handle 0 + TerminationAborted on handle 1
		t.Errorf("instants = %d, want 5", instants)
	}
	if !sawAborted {
		t.Error("aborted search not renamed search_aborted")
	}
	if !sawCrossSlice {
		t.Error("ring-2 search slice not colored")
	}

	var again bytes.Buffer
	if err := ChromeJSON(&again, tls); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("ChromeJSON output is not deterministic")
	}
}

// TestChromeJSONUnpaired covers the ring-wrap edge: a SearchEnd whose
// begin was overwritten and a SearchBegin still open at snapshot time
// both degrade to instants instead of being dropped.
func TestChromeJSONUnpaired(t *testing.T) {
	tls := []Timeline{{Handle: 0, Events: []Event{
		{TS: 5, Kind: SearchEnd, Arg1: 2, Arg2: 0},
		{TS: 9, Kind: SearchBegin, Arg1: 1},
	}}}
	var buf bytes.Buffer
	if err := ChromeJSON(&buf, tls); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"search_end"`, `"search_begin"`} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s instant: %s", want, out)
		}
	}
	if strings.Contains(out, `"ph":"X"`) {
		t.Error("unpaired events must not form a slice")
	}
}

// TestWriteCSV checks the merged CSV: header, timestamp-sorted
// interleave across handles, and one row per event.
func TestWriteCSV(t *testing.T) {
	tls := []Timeline{
		{Handle: 0, Events: []Event{
			{TS: 10, Kind: SearchBegin, Arg1: 1},
			{TS: 40, Kind: SearchEnd, Arg1: 1, Arg2: 0},
		}},
		{Handle: 1, Events: []Event{{TS: 20, Kind: ReserveTransfer, Arg1: 0, Arg2: 3}}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tls); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		"ts,handle,event,arg1,arg2",
		"10,0,search_begin,1,0",
		"20,1,reserve_transfer,0,3",
		"40,0,search_end,1,0",
	}
	if len(lines) != len(want) {
		t.Fatalf("CSV lines = %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}
