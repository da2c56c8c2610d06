package main

import (
	"sync/atomic"
	"time"

	"pools"
)

// config is one benchmark invocation: a workload, its seed, and the
// measurement shape.
type config struct {
	workload string
	seed     uint64
	windows  int           // measured windows
	window   time.Duration // length of one window
	warmup   time.Duration // unmeasured lead-in before a run's first window
	depth    int           // tasktree search depth
	setups   int           // set-ups timed for setup_s (median reported)
	traced   bool
	spans    string // Chrome-trace file of the traced run ("" writes none)
}

// run is one measured pass of a workload's traffic: two workers, a
// window clock, and the pool-level failures the driver found.
type run struct {
	cfg     config
	base    time.Time
	clockNs int64 // calibrated cost of one clock read, subtracted from spans
	win     atomic.Int32
	stop    atomic.Bool
	durs    []time.Duration
	workers []*worker
	failed  int64
}

func newRun(cfg config, clockNs int64) *run {
	r := &run{cfg: cfg, base: time.Now(), clockNs: clockNs}
	for id := range 2 {
		w := &worker{
			r:   r,
			id:  id,
			rnd: mix(cfg.seed ^ uint64(id+1)*0x9e3779b97f4a7c15),
			ops: padded(cfg.windows + 2),
			lat: make([]hist, cfg.windows+2),
		}
		if cfg.traced {
			w.tr = newTracer(r.clockNs)
		}
		r.workers = append(r.workers, w)
	}
	return r
}

// drive runs the window clock while wait blocks on the workers, which
// leave their loops once the clock sets r.stop.
func (r *run) drive(wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.clock()
	}()
	wait()
	<-done
}

// clock advances the window index: 0 during the warm-up, 1..n for the
// measured windows, n+1 while the workers wind down. Each window's real
// length is recorded, so a late timer wake-up does not skew a rate.
func (r *run) clock() {
	time.Sleep(r.cfg.warmup)
	r.durs = make([]time.Duration, r.cfg.windows)
	t := time.Now()
	for i := range r.durs {
		r.win.Store(int32(i + 1))
		time.Sleep(r.cfg.window)
		now := time.Now()
		r.durs[i] = now.Sub(t)
		t = now
	}
	r.win.Store(int32(len(r.durs) + 1))
	r.stop.Store(true)
}

// rates returns every measured window's completed pool operations per
// second, over all the runs.
func rates(runs []*run) []float64 {
	var out []float64
	for _, r := range runs {
		for i, d := range r.durs {
			var n int64
			for _, w := range r.workers {
				n += w.ops[i+1]
			}
			out = append(out, float64(n)/d.Seconds())
		}
	}
	return out
}

// latency returns the median over all the runs' windows of the sampled
// Get latency's q-quantile, and the number of samples in those windows.
func latency(runs []*run, q float64) (float64, uint64) {
	var qs []float64
	var samples uint64
	for _, r := range runs {
		for i := range r.durs {
			var h hist
			for _, w := range r.workers {
				h.merge(&w.lat[i+1])
			}
			samples += h.count()
			qs = append(qs, h.quantile(q))
		}
	}
	return median(qs), samples
}

func tally(runs []*run) (attempted, failed int64) {
	for _, r := range runs {
		failed += r.failed
		for _, w := range r.workers {
			attempted += w.attempted
			failed += w.failed
		}
	}
	return attempted, failed
}

// worker is one of the two goroutines driving the pool. Its counters
// are written only by its own goroutine and read after it has joined;
// the pads keep two workers' hot fields off a shared cache line.
type worker struct {
	_         [64]byte
	r         *run
	id        int
	win       int32 // window the next completed operation is credited to
	gets      uint64
	rnd       uint64
	attempted int64
	failed    int64
	ops       []int64 // completed operations per window
	lat       []hist  // sampled Get latency per window
	tr        *tracer // nil in untraced runs
	_         [64]byte
}

// padded returns a zeroed slice of n counters with a cache line of
// unused space on either side, so two workers' counters never share one.
func padded(n int) []int64 {
	return make([]int64, n+16)[8 : 8+n]
}

func (w *worker) now() int64 { return int64(time.Since(w.r.base)) }

// done credits n completed pool operations to the current window.
func (w *worker) done(n int64) {
	w.ops[w.win] += n
	w.win = w.r.win.Load()
}

// rand returns the worker's next pseudo-random number (splitmix64).
func (w *worker) rand() uint64 {
	w.rnd += 0x9e3779b97f4a7c15
	return mix(w.rnd)
}

func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// live runs the worker's loop, adding its duration to the traced
// lifetime that the per-layer time fractions divide by.
func (w *worker) live(loop func()) {
	t0 := w.now()
	loop()
	if w.tr != nil {
		w.tr.lifeNs += w.now() - t0
	}
}

// seat is a worker's attachment to a pool: its handle, plus the pool
// for the traced run's SegmentLen read after a steal.
type seat[T any] struct {
	p *pools.Pool[T]
	h *pools.Handle[T]
}

// put is one Put. id labels the traced span (0: the current task's id).
func put[T any](w *worker, s seat[T], v T, id uint64) {
	w.attempted++
	if w.tr == nil {
		s.h.Put(v)
		return
	}
	t0 := w.now()
	s.h.Put(v)
	w.tr.record(kindPut, t0, w.now(), id, true)
}

// get is one Get as a user issues it. Untraced, one Get in 64 is timed
// (the sample includes one monotonic clock read). Traced, the Get is
// split into TryGetLocal and, on a miss, Get, each its own span; id
// names the element for the span (nil: the current task's id).
func get[T any](w *worker, s seat[T], id func(T) uint64) (T, bool) {
	w.attempted++
	if w.tr != nil {
		return tracedGet(w, s, id)
	}
	w.gets++
	if w.gets&63 != 0 {
		return s.h.Get()
	}
	t0 := w.now()
	v, ok := s.h.Get()
	w.lat[w.win].add(w.now() - t0)
	return v, ok
}

func tracedGet[T any](w *worker, s seat[T], id func(T) uint64) (T, bool) {
	tr := w.tr
	t0 := w.now()
	tr.taskBegins(t0)
	v, ok := s.h.TryGetLocal()
	t1 := w.now()
	if ok {
		tr.record(kindLocalGet, t0, t1, elemID(id, v), true)
		return v, true
	}
	tr.record(kindLocalGet, t0, t1, 0, false)
	v, ok = s.h.Get()
	t2 := w.now()
	if !ok {
		tr.record(kindGet, t1, t2, 0, false)
		return v, false
	}
	tr.record(kindGet, t1, t2, elemID(id, v), true)
	tr.stolen += 1 + int64(s.p.SegmentLen(s.h.ID()))
	return v, true
}

func elemID[T any](id func(T) uint64, v T) uint64 {
	if id == nil {
		return 0
	}
	return id(v)
}
