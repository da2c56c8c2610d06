package workload

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pools/internal/metrics"
)

// fakeWorker is a Worker on a counting clock that logs every call.
type fakeWorker struct {
	log   []string
	dead  atomic.Bool
	now   int64
	getN  func(n int) int // nil moves all n
	quiet bool            // log nothing (for workers on other goroutines)
}

func (w *fakeWorker) note(format string, args ...any) {
	if !w.quiet {
		w.log = append(w.log, fmt.Sprintf(format, args...))
	}
}

func (w *fakeWorker) Put()       { w.note("Put") }
func (w *fakeWorker) Get()       { w.note("Get") }
func (w *fakeWorker) PutN(n int) { w.note("PutN %d", n) }
func (w *fakeWorker) GetN(n int) int {
	w.note("GetN %d", n)
	if w.getN != nil {
		return w.getN(n)
	}
	return n
}
func (w *fakeWorker) BatchSize(c int) int { w.note("BatchSize"); return c }
func (w *fakeWorker) Alive() bool         { return !w.dead.Load() }
func (w *fakeWorker) Turn()               { w.note("Turn") }
func (w *fakeWorker) After()              { w.note("After") }
func (w *fakeWorker) Done()               { w.note("Done") }
func (w *fakeWorker) Now() int64          { return w.now }
func (w *fakeWorker) Idle()               { runtime.Gosched() }
func (w *fakeWorker) WaitUntil(t int64) {
	w.note("WaitUntil %d", t)
	w.now = max(w.now, t)
}

// loggedBudget logs each claim into its worker's log.
type loggedBudget struct {
	*Budget
	w *fakeWorker
}

func (b loggedBudget) TryClaimN(k int) int {
	n := b.Budget.TryClaimN(k)
	b.w.note("claim %d", n)
	return n
}

// TestDriveCallOrder pins the order Drive calls its worker and budget
// in: Turn, then the batch size (Burst only), then the claim, the
// operation, and After. The simulator's goldens depend on it: Turn
// charges virtual time, and a pool-wide controller can move while it
// yields, so the batch size must be asked after Turn.
func TestDriveCallOrder(t *testing.T) {
	burst := Config{Procs: 1, Model: Burst, Producers: 0, Arrangement: Contiguous, BatchSize: 2, TotalOps: 3}
	adds := Config{Procs: 1, Model: RandomOps, AddFraction: 1, TotalOps: 2}
	for _, tc := range []struct {
		name string
		cfg  Config
		want []string
	}{
		{"burst", burst, []string{
			"Turn", "BatchSize", "claim 2", "GetN 2", "After",
			"Turn", "BatchSize", "claim 1", "GetN 1", "After",
			"Turn", "BatchSize", "claim 0", "Done",
		}},
		{"random-ops", adds, []string{
			"Turn", "claim 1", "Put", "After",
			"Turn", "claim 1", "Put", "After",
			"Turn", "claim 0", "Done",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &fakeWorker{}
			b := NewBudget(tc.cfg.TotalOps)
			Drive(tc.cfg, 0, 1, w, loggedBudget{b, w}, nil)
			if !reflect.DeepEqual(w.log, tc.want) {
				t.Errorf("calls:\n got %q\nwant %q", w.log, tc.want)
			}
			if b.Left() != 1 {
				t.Errorf("Left = %d after Drive returned, want 1", b.Left())
			}
		})
	}
}

// TestDriveOpenLoopWaits checks the open-loop path: each operation waits
// for its arrival, then holds the worker for its service time, and the
// sojourn histogram gets one sample per operation.
func TestDriveOpenLoopWaits(t *testing.T) {
	cfg := Config{Procs: 1, Model: OpenLoop, AddFraction: 1, TotalOps: 3,
		Arrivals: Arrivals{Lambda: 0.01, ServiceMean: 5}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	w := &fakeWorker{}
	h := make([]metrics.LatencyHist, 1)
	Drive(cfg, 0, 7, w, loggedBudget{NewBudget(cfg.TotalOps), w}, h)
	gen := cfg.ArrivalsFor(0).Gen(0, 7)
	var want []string
	var arrival, now int64
	for i := 0; i < cfg.TotalOps; i++ {
		gap, svc := gen.Next()
		arrival += gap
		now = max(now, arrival)
		want = append(want, "Turn", "claim 1", fmt.Sprintf("WaitUntil %d", arrival), "Put")
		if svc > 0 {
			want = append(want, fmt.Sprintf("WaitUntil %d", now+svc))
			now += svc
		}
		want = append(want, "After")
	}
	want = append(want, "Turn", "claim 0", "Done")
	if !reflect.DeepEqual(w.log, want) {
		t.Errorf("calls:\n got %q\nwant %q", w.log, want)
	}
	if h[0].N() != int64(cfg.TotalOps) {
		t.Errorf("sojourn samples = %d, want %d", h[0].N(), cfg.TotalOps)
	}
}

// TestDriveKilledRefunderStops is the burst+churn hang: a worker killed
// in the middle of a batch refunds the units its GetN could not move
// after its only peer has spent the rest of the budget and left. The
// refund reopens the budget, but no live worker remains to claim it or
// to tick the revive the killed worker waits for, so the killed worker
// must stop rather than idle forever.
func TestDriveKilledRefunderStops(t *testing.T) {
	cfg := Config{Procs: 2, Model: Burst, Producers: 0, Arrangement: Contiguous, BatchSize: 4, TotalOps: 8}
	b := NewBudget(cfg.TotalOps)
	entered, release := make(chan struct{}), make(chan int)
	killed := &fakeWorker{quiet: true, getN: func(int) int {
		entered <- struct{}{}
		return <-release
	}}
	done := make(chan struct{})
	go func() {
		Drive(cfg, 0, 1, killed, b, nil)
		close(done)
	}()
	<-entered // the killed worker holds 4 units inside GetN
	killed.dead.Store(true)
	Drive(cfg, 1, 1, &fakeWorker{}, b, nil) // the peer spends the other 4 and leaves
	if !b.Exhausted() {
		t.Fatalf("budget not exhausted after the peer left: used %d", b.Used())
	}
	release <- 0 // the killed GetN moves nothing: 1 unit for the abort, 3 refunded
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drive did not return: the killed worker idles on a reopened budget nobody can spend")
	}
	if b.Used() != 5 || b.Left() != 2 {
		t.Errorf("used %d, left %d; want the 3 refunded units unspent (5) and both workers gone", b.Used(), b.Left())
	}
}
