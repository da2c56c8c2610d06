package workload

import "pools/internal/metrics"

// Worker is one process's handle on the pool under test plus its clock,
// as Drive sees it. The simulator and the real pool each supply one; the
// clock is virtual µs in the one and wall-clock µs in the other.
type Worker interface {
	Put()                         // add one element
	Get()                         // remove one element (or abort)
	PutN(n int)                   // add n elements in one batch
	GetN(n int) int               // remove up to n elements; returns how many moved
	BatchSize(configured int) int // the batch the controller recommends now
	Alive() bool                  // false while the churn driver holds the process down
	Turn()                        // before each claim: the shared-budget access
	After()                       // after each operation
	Done()                        // once, as the process stops
	Now() int64                   // the clock, in µs
	WaitUntil(t int64)            // advance the clock to t (no-op if past)
	Idle()                        // one idle step of a killed process
}

// Claimer is the operation budget the processes share; *Budget is one.
// Leave and Left count the processes that have stopped, for the rule
// that ends a killed process's idle (see Drive).
type Claimer interface {
	TryClaimN(k int) int
	Refund(n int)
	Exhausted() bool
	Leave()
	Left() int
}

// Drive runs process id of a workload until the shared budget is spent:
// "the processes performed operations until the combined total number of
// operations reached the desired amount" (Section 3.4). Each operation
// takes one Turn, asks the batch size (Burst only, after Turn, since a
// pool-wide controller may move while the Turn yields), claims budget,
// runs, and ends in After. A burst batch claims one unit per element and
// refunds what its GetN could not move (an abort costs one unit), so
// Ops()+Aborts equals the budget at every batch size, short of the units
// a killed process leaves unspent (below). Under OpenLoop the
// operation first waits for its arrival on the external clock, then
// holds the process for its service time, and records its sojourn
// (completion minus arrival) into sojourns[id]; closed-loop models may
// pass nil.
//
// A killed process (Alive false) idles without claiming until revived.
// It stops when the budget is spent or when every other process has
// left: a refund it made after the others exited would otherwise leave
// the budget open with no live process to spend it or to tick a revive.
func Drive(cfg Config, id int, seed uint64, w Worker, b Claimer, sojourns []metrics.LatencyHist) {
	ch := NewChooser(cfg, id, seed)
	var gen *ArrivalGen
	if cfg.Model == OpenLoop {
		gen = cfg.ArrivalsFor(id).Gen(id, seed)
	}
	var arrival int64
	for {
		if !w.Alive() {
			if b.Exhausted() || b.Left() == cfg.Procs-1 {
				break
			}
			w.Idle()
			continue
		}
		w.Turn()
		want := 1
		if cfg.Model == Burst {
			want = w.BatchSize(cfg.BatchSize)
		}
		take := b.TryClaimN(want)
		if take == 0 {
			break
		}
		if cfg.Model == Burst {
			if ch.next(take) == metrics.OpAdd {
				w.PutN(take)
			} else {
				moved := max(w.GetN(take), 1)
				b.Refund(take - moved)
			}
			w.After()
			continue
		}
		var svc int64
		if gen != nil {
			var gap int64
			gap, svc = gen.Next()
			arrival += gap
			w.WaitUntil(arrival)
		}
		if ch.Next() == metrics.OpAdd {
			w.Put()
		} else {
			w.Get()
		}
		if gen != nil {
			if svc > 0 {
				w.WaitUntil(w.Now() + svc)
			}
			sojourns[id].Record(w.Now() - arrival)
		}
		w.After()
	}
	w.Done()
	b.Leave()
}
