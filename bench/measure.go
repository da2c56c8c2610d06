package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"pools"
	"pools/internal/segment"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced run's metrics, perLayer the traced run's.
// BENCHMARK.json declares the same names (bench_test.go checks it).
var endToEnd = []metricSpec{
	{"ops_per_s", "ops/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"segment.push_pop_ns", "ns"},
	{"segment.steal_ns", "ns"},
	{"core.put_ns", "ns"},
	{"core.put_p99_ns", "ns"},
	{"core.local_get_ns", "ns"},
	{"core.local_hit_frac", "frac"},
	{"engine.search_ns", "ns"},
	{"engine.search_p99_ns", "ns"},
	{"engine.empty_search_ns", "ns"},
	{"engine.search_frac", "frac"},
	{"engine.empty_frac", "frac"},
	{"engine.stolen_per_steal", "elements"},
	{"engine.busy_frac", "frac"},
	{"metrics.overhead_x", "x"},
	{"metrics.put_extra_ns", "ns"},
	{"metrics.get_extra_ns", "ns"},
	{"ttt.task_self_ns", "ns"},
	{"ttt.app_frac", "frac"},
	{"bench.clock_ns", "ns"},
	{"bench.trace_overhead_x", "x"},
	{"bench.producer_wait_frac", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(specs []metricSpec, values map[string]float64, attempted, failed int64) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			panic("bench: metric " + s.name + " not measured")
		}
		res.Metrics[s.name] = metric{v, s.unit}
	}
	return res
}

// execute runs one workload, untraced or traced, and returns its result
// and a human-readable line for the log.
func execute(cfg config) (result, string, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return result{}, "", fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if cfg.traced {
		return executeTraced(cfg, wl)
	}
	runs, err := measure(cfg, wl, wl.observed)
	if err != nil {
		return result{}, "", err
	}
	// The set-ups run after the traffic, so their garbage stays out of
	// the peak RSS. They are timed in batches of at least setupBatch,
	// each on a collected heap with the collector off, so the batch
	// reuses warm memory and no collection's pacing lands in the time.
	rss := maxRSSMB()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	setups := make([]float64, cfg.setups)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		n := 0
		for ; n < 10 || time.Since(t0) < setupBatch; n++ {
			if err := wl.setup(cfg, wl.observed); err != nil {
				return result{}, "", err
			}
		}
		setups[i] = time.Since(t0).Seconds() / float64(n)
	}
	attempted, failed := tally(runs)
	res := newResult(endToEnd, map[string]float64{
		"ops_per_s":  median(rates(runs)),
		"setup_s":    median(setups),
		"max_rss_mb": rss,
	}, attempted, failed)
	p50, samples := latency(runs, 0.50)
	p99, _ := latency(runs, 0.99)
	note := fmt.Sprintf("get latency (not gated): p50 %.1f ns, p99 %.1f ns; %d samples over %d windows of %v",
		p50, p99, samples, cfg.windows, cfg.window)
	return res, note, nil
}

// measure runs the workload's traffic untraced for cfg.windows windows.
// A perWindow workload runs each window, after its own warm-up, on a
// fresh pool with its own seed. Where a pool's objects fall on cache
// lines moves its throughput by up to a fifth, pool to pool, so a run on
// one pool would be one draw of that layout; the window median spans
// many.
func measure(cfg config, wl workload, observed bool) ([]*run, error) {
	if !wl.perWindow {
		r := newRun(cfg, 0)
		return []*run{r}, wl.traffic(r, observed)
	}
	one := cfg
	one.windows = 1
	runs := make([]*run, cfg.windows)
	for i := range runs {
		one.seed = mix(cfg.seed + uint64(i))
		runs[i] = newRun(one, 0)
		if err := wl.traffic(runs[i], observed); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// executeTraced calibrates, runs the workload with spans on one pool,
// then measures its traffic untraced on the plain and the observed
// configuration for the overhead ratios.
func executeTraced(cfg config, wl workload) (result, string, error) {
	cal, err := calibrate()
	if err != nil {
		return result{}, "", err
	}
	r := newRun(cfg, int64(cal.clockNs))
	if err := wl.traffic(r, wl.observed); err != nil {
		return result{}, "", err
	}
	tracedRate := median(rates([]*run{r}))
	if cfg.spans != "" {
		if err := writeChrome(cfg.spans, cfg.workload, r.workers); err != nil {
			return result{}, "", err
		}
	}
	short := cfg
	short.traced = false
	short.windows = min(cfg.windows, 6)
	rate := map[bool]float64{}
	attempted, failed := tally([]*run{r})
	for _, observed := range []bool{false, true} {
		u, err := measure(short, wl, observed)
		if err != nil {
			return result{}, "", err
		}
		rate[observed] = median(rates(u))
		a, f := tally(u)
		attempted, failed = attempted+a, failed+f
	}

	var t tracer
	wait := 0.0
	for _, w := range r.workers {
		x := w.tr
		t.put.merge(&x.put)
		t.local.merge(&x.local)
		t.search.merge(&x.search)
		t.empty.merge(&x.empty)
		t.self.merge(&x.self)
		t.localTries += x.localTries
		t.localHits += x.localHits
		t.searches += x.searches
		t.empties += x.empties
		t.steals += x.steals
		t.stolen += x.stolen
		t.searchNs += x.searchNs
		t.selfNs += x.selfNs
		t.lifeNs += x.lifeNs
		wait = max(wait, ratio(float64(x.waitNs), float64(x.lifeNs)))
	}
	res := newResult(perLayer, map[string]float64{
		"segment.push_pop_ns":      cal.pushPopNs,
		"segment.steal_ns":         cal.stealNs,
		"core.put_ns":              t.put.quantile(0.50),
		"core.put_p99_ns":          t.put.quantile(0.99),
		"core.local_get_ns":        t.local.quantile(0.50),
		"core.local_hit_frac":      ratio(float64(t.localHits), float64(t.localTries)),
		"engine.search_ns":         t.search.quantile(0.50),
		"engine.search_p99_ns":     t.search.quantile(0.99),
		"engine.empty_search_ns":   t.empty.quantile(0.50),
		"engine.search_frac":       ratio(float64(t.searches), float64(t.localTries)),
		"engine.empty_frac":        ratio(float64(t.empties), float64(t.searches)),
		"engine.stolen_per_steal":  ratio(float64(t.stolen), float64(t.steals)),
		"engine.busy_frac":         ratio(float64(t.searchNs), float64(t.lifeNs)),
		"metrics.overhead_x":       ratio(rate[false], rate[true]),
		"metrics.put_extra_ns":     cal.putExtraNs,
		"metrics.get_extra_ns":     cal.getExtraNs,
		"ttt.task_self_ns":         t.self.quantile(0.50),
		"ttt.app_frac":             ratio(float64(t.selfNs), float64(t.lifeNs)),
		"bench.clock_ns":           cal.clockNs,
		"bench.trace_overhead_x":   ratio(rate[wl.observed], tracedRate),
		"bench.producer_wait_frac": wait,
	}, attempted, failed)
	note := fmt.Sprintf("spans: %d Put, %d TryGetLocal, %d Get, %d task; %d per-worker ring slots",
		t.put.count(), t.localTries, t.searches, t.self.count(), ringSize)
	return res, note, nil
}

// setupBatch is the least time over which set-ups are timed together.
const setupBatch = time.Millisecond

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// calibration holds the single-goroutine measurements of the traced run.
type calibration struct {
	clockNs, pushPopNs, stealNs, putExtraNs, getExtraNs float64
}

var sink int64

// calibrate times the clock, the segment primitive, and the pool's
// per-op cost of the observed configuration, each as a median of
// repetitions.
func calibrate() (calibration, error) {
	var c calibration
	base := time.Now()
	reps := make([]float64, 9)
	for i := range reps {
		const n = 1 << 16
		t0 := time.Since(base)
		for range n {
			sink += int64(time.Since(base))
		}
		reps[i] = float64(time.Since(base)-t0) / n
	}
	// The fastest repetition: a span's reads run hot, and subtracting a
	// read cost inflated by a noisy repetition would push short spans to 0.
	c.clockNs = slices.Min(reps)
	clock := int64(c.clockNs)

	var d segment.OwnerDeque[int]
	for i := range reps {
		const blocks = 1 << 12
		t0 := time.Now()
		for range blocks {
			for j := range 64 {
				d.PushBottom(j)
			}
			for range 64 {
				v, _ := d.PopBottom()
				sink += int64(v)
			}
		}
		reps[i] = float64(time.Since(t0)) / (blocks * 64)
	}
	c.pushPopNs = median(reps)

	var steal hist
	buf := make([]int, 0, 16)
	half := func(n int) int { return n / 2 }
	for range 1 << 14 {
		for d.Len() < 16 {
			d.PushBottom(1)
		}
		t0 := time.Since(base)
		buf = d.StealInto(buf[:0], half)
		steal.add(int64(time.Since(base)-t0) - clock)
	}
	c.stealNs = steal.quantile(0.5)

	var putNs, getNs [2]float64
	for i, observed := range []bool{false, true} {
		p, err := pools.New[int](poolOptions(segments, observed))
		if err != nil {
			return c, err
		}
		h := p.Handle(segA)
		var ph, gh hist
		for range 2000 {
			t0 := time.Since(base)
			for j := range 64 {
				h.Put(j)
			}
			t1 := time.Since(base)
			for range 64 {
				v, _ := h.Get()
				sink += int64(v)
			}
			t2 := time.Since(base)
			ph.add(int64(t1-t0) - clock)
			gh.add(int64(t2-t1) - clock)
		}
		putNs[i], getNs[i] = ph.quantile(0.5)/64, gh.quantile(0.5)/64
	}
	c.putExtraNs = putNs[1] - putNs[0]
	c.getExtraNs = getNs[1] - getNs[0]
	return c, nil
}

// maxRSSMB returns the process's peak resident set (ru_maxrss) in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
