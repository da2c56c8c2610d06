package harness

import (
	"sync"

	"pools/internal/core"
	"pools/internal/metrics"
	"pools/internal/trace"
)

// Live is a wall-clock run in flight: RealRun executing on background
// goroutines while observers read statistics and flight-recorder
// timelines without racing the workers. Per-handle stats are
// unsynchronized by design (the 0-alloc hot path), so Live never touches
// them directly — each worker publishes a copy of its own collector
// under the Live mutex every publishEvery operations, and Stats merges
// those copies. Recorder dumps need no such indirection: trace.Recorder
// snapshots are internally locked.
//
// The introspection endpoint (internal/introspect, poolbench
// -debug-addr) is the primary consumer.
type Live struct {
	mu    sync.Mutex
	stats []metrics.PoolStats // workers' published per-handle snapshots
	pool  *core.Pool[int]     // set by setPool before any worker starts
	res   RealRunResult
	err   error
	done  chan struct{}
}

// StartLive launches RealRun(cfg) in the background and returns
// immediately. The returned Live serves race-safe mid-run snapshots;
// Result blocks for the final measurements.
func StartLive(cfg RealRunConfig) *Live {
	l := &Live{done: make(chan struct{})}
	if n := cfg.Workload.Procs; n > 0 {
		l.stats = make([]metrics.PoolStats, n)
	}
	cfg.live = l
	go func() {
		res, err := RealRun(cfg)
		l.mu.Lock()
		l.res, l.err = res, err
		l.mu.Unlock()
		close(l.done)
	}()
	return l
}

// setPool hands Live the run's pool, for mid-run recorder dumps.
func (l *Live) setPool(p *core.Pool[int]) {
	l.mu.Lock()
	l.pool = p
	l.mu.Unlock()
}

// publish stores worker's latest statistics snapshot. It runs on the
// worker goroutine, so it only copies under the mutex.
func (l *Live) publish(worker int, s metrics.PoolStats) {
	l.mu.Lock()
	if worker >= 0 && worker < len(l.stats) {
		l.stats[worker] = s
	}
	l.mu.Unlock()
}

// Done is closed when the run has finished.
func (l *Live) Done() <-chan struct{} { return l.done }

// Result blocks until the run finishes and returns its measurements.
func (l *Live) Result() (RealRunResult, error) {
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.res, l.err
}

// Stats returns the merged pool statistics: the workers' latest
// published snapshots while the run is in flight (at most publishEvery
// operations stale per worker), the authoritative final merge once it
// has finished.
func (l *Live) Stats() metrics.PoolStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.done:
		return l.res.Stats
	default:
	}
	var out metrics.PoolStats
	for i := range l.stats {
		out.Merge(&l.stats[i])
	}
	return out
}

// Timelines snapshots every handle's flight recorder (nil unless the run
// was started with TraceBuf). Safe mid-run: recorders lock internally.
func (l *Live) Timelines() []trace.Timeline {
	l.mu.Lock()
	p := l.pool
	l.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.Timelines()
}

// Timeline snapshots one handle's recorder, or a zero Timeline if the
// handle is out of range or tracing is off.
func (l *Live) Timeline(handle int) trace.Timeline {
	l.mu.Lock()
	p := l.pool
	l.mu.Unlock()
	if p == nil || handle < 0 || handle >= p.Segments() {
		return trace.Timeline{Handle: handle}
	}
	tr := p.Tracer(handle)
	if tr == nil {
		return trace.Timeline{Handle: handle}
	}
	return tr.Timeline()
}
