package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Span kinds: one per public call the benchmark wraps, plus the task and
// the handoff producer's wait on a full backlog.
const (
	kindPut      uint8 = iota // Handle.Put
	kindLocalGet              // Handle.TryGetLocal
	kindGet                   // Handle.Get after a TryGetLocal miss: the engine's search
	kindTask                  // tasktree: one Engine.Step that obtained a task
	kindPoll                  // tasktree: one Engine.Step whose Get came back empty
	kindWait                  // handoff producer blocked on a full backlog
)

var kindNames = [...]string{"Put", "TryGetLocal", "Get", "task", "poll", "wait"}
var kindLayers = [...]string{"core", "core", "engine", "ttt", "ttt", "bench"}

// ringSize is the number of spans each worker keeps for the trace file;
// the aggregates below cover every span, kept or overwritten.
const ringSize = 1 << 15

type span struct {
	start, end int64 // ns since the run's base time
	id         uint64
	seq        uint32 // span id, unique per worker
	parent     uint32 // seq of the enclosing task span, 0 for none
	kind       uint8
	ok         bool
}

// tracer is one worker's span ring and per-layer aggregates. Only its
// worker writes it.
type tracer struct {
	clockNs int64
	ring    []span
	n       uint64
	seq     uint32

	put, local, search, empty, self hist

	localTries, localHits, searches, empties, steals, stolen int64
	searchNs, selfNs, waitNs, lifeNs                         int64

	// The task in progress (tasktree): its span id, element id, start
	// stamp, and the time and extra clock reads of its child spans.
	parent      uint32
	task        uint64
	taskStart   int64
	childNs     int64
	childStamps int64
	tasks       uint64
}

func newTracer(clockNs int64) *tracer {
	return &tracer{clockNs: clockNs, ring: make([]span, ringSize)}
}

// record files one span and folds it into the aggregates. A span's
// interval holds the cost of one clock read, which is subtracted.
func (t *tracer) record(kind uint8, start, end int64, id uint64, ok bool) {
	t.seq++
	t.store(span{start: start, end: end, id: id, seq: t.seq, parent: t.parent, kind: kind, ok: ok})
	if t.parent != 0 {
		t.childNs += end - start
		if kind == kindPut {
			t.childStamps++ // a Put's start stamp lies outside every other child
		}
	}
	d := max(end-start-t.clockNs, 0)
	switch kind {
	case kindPut:
		t.put.add(d)
	case kindLocalGet:
		t.localTries++
		if ok {
			t.localHits++
			t.local.add(d)
		}
	case kindGet:
		t.searches++
		t.searchNs += d
		if ok {
			t.steals++
			t.search.add(d)
		} else {
			t.empties++
			t.empty.add(d)
		}
	case kindWait:
		t.waitNs += d
	}
}

func (t *tracer) store(s span) {
	if s.id == 0 {
		s.id = t.task
	}
	t.ring[t.n%ringSize] = s
	t.n++
}

// beginTask opens a task span; its start is the stamp of the Get that
// fetches the task, so the task's first child shares it.
func (t *tracer) beginTask(worker int) {
	t.seq++
	t.parent = t.seq
	t.tasks++
	t.task = uint64(worker+1)<<40 | t.tasks
	t.taskStart = -1
	t.childNs, t.childStamps = 0, 0
}

func (t *tracer) taskBegins(stamp int64) {
	if t.parent != 0 && t.taskStart < 0 {
		t.taskStart = stamp
	}
}

// endTask closes the task span. Its self time is its length minus its
// children's and minus the clock reads outside them: the end stamp and
// each child Put's start stamp.
func (t *tracer) endTask(end int64, ok bool) {
	s := span{start: t.taskStart, end: end, seq: t.parent, kind: kindPoll, ok: ok}
	t.parent = 0
	if ok {
		s.kind = kindTask
		self := max(end-s.start-t.childNs-(t.childStamps+1)*t.clockNs, 0)
		t.self.add(self)
		t.selfNs += self
	}
	t.store(s)
	t.task = 0
}

// spans returns the kept spans, oldest first.
func (t *tracer) spans() []span {
	if t.n <= ringSize {
		return t.ring[:t.n]
	}
	i := t.n % ringSize
	return append(append([]span(nil), t.ring[i:]...), t.ring[:i]...)
}

// writeChrome writes the workers' kept spans as Chrome trace-event JSON
// (load it in Perfetto or chrome://tracing): one track per worker,
// complete events in µs, the element or task id and the parent span in
// each event's args.
func writeChrome(path, workload string, ws []*worker) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%q},\"traceEvents\":[\n", workload)
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	for _, w := range ws {
		sep()
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"worker %d"}}`, w.id, w.id)
		ss := w.tr.spans()
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		for _, s := range ss {
			sep()
			fmt.Fprintf(bw, `{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"span":%d,"parent":%d,"ok":%t}}`,
				kindNames[s.kind], kindLayers[s.kind], w.id, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.seq, s.parent, s.ok)
		}
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
