package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pools"
	"pools/internal/ttt"
)

// workload is one traffic pattern. traffic runs it on a run's two
// workers until the window clock stops them, recording every failed
// check; setup builds, and drops, what traffic builds before its workers
// start, so setup_s times exactly that.
type workload struct {
	observed  bool // runs on the always-on observability configuration
	perWindow bool // untraced, each measured window runs on a pool of its own
	setup     func(cfg config, observed bool) error
	traffic   func(r *run, observed bool) error
}

// workloadNames lists the workloads in the order the bare command runs
// them.
var workloadNames = []string{"forkjoin", "observed", "handoff", "tasktree"}

// tasktree already builds a pool per search, and a search outlasts a
// window, so its windows share the run.
var workloads = map[string]workload{
	"forkjoin": {perWindow: true, setup: setupInts, traffic: forkjoin},
	"observed": {observed: true, perWindow: true, setup: setupInts, traffic: forkjoin},
	"handoff":  {perWindow: true, setup: setupInts, traffic: handoff},
	"tasktree": {setup: setupTasks, traffic: tasktree},
}

// Pool shape of the element workloads: 16 segments, workers on 0 and 8,
// so the other 14 segments are empty victims a search must cover.
const (
	segments  = 16
	segA      = 0
	segB      = 8
	maxBatch  = 32 // forkjoin batch size is drawn from [1, maxBatch]
	backlog   = 16 // handoff producer keeps at most this many in its segment
	taskSegs  = 2
	paperRoot = 0 // minimax value of the empty board at depth 4
)

// poolOptions is the configuration every workload runs on; observed adds
// the always-on observability settings (stats, topology, flight recorder).
func poolOptions(segs int, observed bool) pools.Options {
	o := pools.Options{Segments: segs}
	if observed {
		o.CollectStats = true
		o.Topology = pools.ClusterTopology{Size: 2}
		o.TraceBuf = 1024
	}
	return o
}

func newIntPool(observed bool) (*pools.Pool[int], error) {
	p, err := pools.New[int](poolOptions(segments, observed))
	if err != nil {
		return nil, err
	}
	// Both participants register before either runs, so a consumer that
	// starts first does not see a one-process pool and abort.
	p.Handle(segA).Register()
	p.Handle(segB).Register()
	return p, nil
}

func setupInts(_ config, observed bool) error {
	_, err := newIntPool(observed)
	return err
}

func intID(v int) uint64 { return uint64(v) }

// forkjoin: each worker repeatedly draws k in [1, maxBatch], puts k
// elements and gets them back on its own handle. No Get can miss, so no
// search or steal ever runs: every Get must return the element LIFO
// predicts.
func forkjoin(r *run, observed bool) error {
	p, err := newIntPool(observed)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for i, seg := range []int{segA, segB} {
		w, s := r.workers[i], seat[int]{p, p.Handle(seg)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.live(func() { forkjoinLoop(w, s) })
		}()
	}
	r.drive(wg.Wait)
	if p.Len() != 0 || len(p.Drain()) != 0 {
		r.failed++
	}
	return nil
}

func forkjoinLoop(w *worker, s seat[int]) {
	next := (w.id + 1) << 40 // element ids: worker in the high bits, never 0
	for !w.r.stop.Load() {
		k := 1 + int(w.rand()%maxBatch)
		for i := range k {
			put(w, s, next+i, uint64(next+i))
		}
		for i := k - 1; i >= 0; i-- {
			if v, ok := get(w, s, intID); !ok || v != next+i {
				w.failed++
			}
		}
		next += k
		w.done(int64(2 * k))
	}
}

// handoff: a producer on segment segB puts sequence numbers 1, 2, ...
// while its segment holds fewer than backlog; a consumer on segA gets in
// a loop, so every element it receives was stolen. An empty Get while
// the producer is live is an expected poll; after the producer closes,
// an empty Get means the pool is drained, and every number must have
// arrived exactly once.
func handoff(r *run, observed bool) error {
	p, err := newIntPool(observed)
	if err != nil {
		return err
	}
	cons, prod := r.workers[0], r.workers[1]
	var closed atomic.Bool
	var produced int
	var seen seqWindow
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s := seat[int]{p, p.Handle(segB)}
		prod.live(func() { produced = produce(prod, s) })
		s.h.Close()
		closed.Store(true)
	}()
	go func() {
		defer wg.Done()
		cons.live(func() { consume(cons, seat[int]{p, p.Handle(segA)}, &closed, &seen) })
	}()
	r.drive(wg.Wait)
	if delivered := int(seen.low) - 1; delivered != produced {
		r.failed += int64(produced - delivered)
	}
	r.failed += int64(p.Len())
	return nil
}

func produce(w *worker, s seat[int]) int {
	seg := s.h.ID()
	seq := 1
	for !w.r.stop.Load() {
		if s.p.SegmentLen(seg) >= backlog {
			if w.tr != nil {
				t0 := w.now()
				for s.p.SegmentLen(seg) >= backlog && !w.r.stop.Load() {
				}
				w.tr.record(kindWait, t0, w.now(), 0, true)
			}
			continue
		}
		put(w, s, seq, uint64(seq))
		seq++
		w.done(1)
	}
	return seq - 1
}

func consume(w *worker, s seat[int], closed *atomic.Bool, seen *seqWindow) {
	seen.low = 1
	for {
		// Read before the Get: an empty Get that began after the producer
		// closed is exact.
		drained := closed.Load()
		v, ok := get(w, s, intID)
		if ok {
			if !seen.mark(uint64(v)) {
				w.failed++
			}
			w.done(1)
		} else if drained {
			return
		}
	}
}

// seqWindow checks exactly-once delivery of sequence numbers in O(1)
// space: low is the smallest number not yet delivered, and bits marks
// delivered numbers in [low, low+seqSpan). At most 2*backlog elements
// are ever in flight, so a number beyond the window is a loss.
type seqWindow struct {
	low  uint64
	bits [seqSpan / 64]uint64
}

const seqSpan = 1 << 16

// mark records delivery of v and reports whether it was new and in range.
func (s *seqWindow) mark(v uint64) bool {
	if v < s.low || v >= s.low+seqSpan {
		return false
	}
	i := v % seqSpan
	if s.bits[i/64]&(1<<(i%64)) != 0 {
		return false
	}
	s.bits[i/64] |= 1 << (i % 64)
	for {
		j := s.low % seqSpan
		if s.bits[j/64]&(1<<(j%64)) == 0 {
			return true
		}
		s.bits[j/64] &^= 1 << (j % 64)
		s.low++
	}
}

// taskSearch is one parallel minimax search on its own 2-segment pool.
type taskSearch struct {
	p   *pools.Pool[*ttt.Node]
	eng *ttt.Engine
}

// rootSource places the root task through handle 0 before the workers
// start.
type rootSource struct{ h *pools.Handle[*ttt.Node] }

func (s rootSource) Put(n *ttt.Node)        { s.h.Put(n) }
func (s rootSource) Get() (*ttt.Node, bool) { return s.h.Get() }

func newTaskSearch(depth int, observed bool) (taskSearch, error) {
	p, err := pools.New[*ttt.Node](poolOptions(taskSegs, observed))
	if err != nil {
		return taskSearch{}, err
	}
	for i := range taskSegs {
		p.Handle(i).Register()
	}
	return taskSearch{p, ttt.NewEngine(ttt.Board{}, ttt.X, depth, rootSource{p.Handle(0)})}, nil
}

func setupTasks(cfg config, observed bool) error {
	_, err := newTaskSearch(cfg.depth, observed)
	return err
}

// taskSource is a worker's ttt.Source: every Put and Get the engine
// makes goes through the benchmark's put and get.
type taskSource struct {
	w *worker
	s seat[*ttt.Node]
}

func (t *taskSource) Put(n *ttt.Node) {
	put(t.w, t.s, n, 0)
	t.w.done(1)
}

func (t *taskSource) Get() (*ttt.Node, bool) {
	n, ok := get(t.w, t.s, nil)
	if ok {
		t.w.done(1)
	}
	return n, ok
}

// expectedRoot returns the minimax value of the empty board at depth:
// pinned for the paper's depth 4, computed sequentially otherwise.
func expectedRoot(depth int) int {
	if depth == 4 {
		return paperRoot
	}
	v, _ := ttt.Minimax(ttt.Board{}, ttt.X, depth)
	return v
}

// tasktree: the paper's application, parallel 4x4x4 tic-tac-toe minimax
// from the empty board, searches run back to back. A search still in
// flight when the clock stops is abandoned unless none has completed,
// so every run checks at least one whole search: root value and leaf
// count.
func tasktree(r *run, observed bool) error {
	depth := r.cfg.depth
	if depth < 1 || depth > 4 {
		return fmt.Errorf("tasktree: depth %d outside [1, 4]", depth)
	}
	want, leaves := expectedRoot(depth), ttt.PositionCount(ttt.Cells, depth)
	var err error
	r.drive(func() {
		completed := 0
		for completed == 0 || !r.stop.Load() {
			var ts taskSearch
			if ts, err = newTaskSearch(depth, observed); err != nil {
				r.stop.Store(true)
				return
			}
			abortable := completed > 0
			var wg sync.WaitGroup
			for i, w := range r.workers {
				src := &taskSource{w, seat[*ttt.Node]{ts.p, ts.p.Handle(i)}}
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.live(func() { taskLoop(w, ts.eng, src, abortable) })
				}()
			}
			wg.Wait()
			if !ts.eng.Done() {
				continue
			}
			completed++
			if ts.eng.RootValue() != want {
				r.failed++
			}
			if ts.eng.Evaluated() != leaves {
				r.failed++
			}
			r.failed += int64(ts.p.Len())
		}
	})
	return err
}

func taskLoop(w *worker, e *ttt.Engine, src *taskSource, abortable bool) {
	for !e.Done() && !(abortable && w.r.stop.Load()) {
		if w.tr == nil {
			e.Step(src)
			continue
		}
		w.tr.beginTask(w.id)
		ok := e.Step(src)
		w.tr.endTask(w.now(), ok)
	}
}
