package segment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestOwnerDequeZeroValueUsable(t *testing.T) {
	var d OwnerDeque[int]
	if d.Len() != 0 {
		t.Fatal("zero value should be empty")
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("PopBottom on empty returned ok")
	}
	d.PushBottom(42)
	v, ok := d.PopBottom()
	if !ok || v != 42 {
		t.Fatalf("got (%v,%v), want (42,true)", v, ok)
	}
}

func TestOwnerDequeLIFO(t *testing.T) {
	var d OwnerDeque[int]
	const n = 1000
	for i := 0; i < n; i++ {
		d.PushBottom(i)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i := n - 1; i >= 0; i-- {
		v, ok := d.PopBottom()
		if !ok || v != i {
			t.Fatalf("PopBottom = (%v,%v), want (%d,true)", v, ok, i)
		}
	}
	if d.Len() != 0 {
		t.Fatal("should be empty")
	}
}

// Wraparound: interleaved push/pop cycles the ring through many times its
// capacity without growing, and values survive each lap.
func TestOwnerDequeWraparound(t *testing.T) {
	var d OwnerDeque[int]
	next := 0
	for lap := 0; lap < 200; lap++ {
		for i := 0; i < 5; i++ {
			d.PushBottom(next)
			next++
		}
		for i := 0; i < 5; i++ {
			v, ok := d.PopBottom()
			if !ok || v != next-1-i {
				t.Fatalf("lap %d: got (%v,%v), want (%d,true)", lap, v, ok, next-1-i)
			}
		}
	}
	if got := len(d.buf); got != ownerMinCap {
		t.Fatalf("ring grew to %d during steady-state cycling", got)
	}
}

func TestOwnerDequePushBottomAll(t *testing.T) {
	var d OwnerDeque[int]
	batch := make([]int, 100)
	for i := range batch {
		batch[i] = i
	}
	d.PushBottomAll(nil)
	d.PushBottomAll(batch)
	if d.Len() != 100 {
		t.Fatalf("Len = %d, want 100", d.Len())
	}
	for i := 99; i >= 0; i-- {
		v, ok := d.PopBottom()
		if !ok || v != i {
			t.Fatalf("got (%v,%v), want (%d,true)", v, ok, i)
		}
	}
}

// Foreign adds are invisible to the owner's LIFO ring until it runs dry;
// then they come out newest-first, exactly as if the owner had popped the
// overflow directly.
func TestOwnerDequeForeignOrder(t *testing.T) {
	var d OwnerDeque[int]
	d.PushBottom(1)
	d.PushBottom(2)
	d.AddForeign(10)
	d.AddForeignAll([]int{11, 12})
	if d.Len() != 5 {
		t.Fatalf("Len = %d, want 5", d.Len())
	}
	want := []int{2, 1, 12, 11, 10}
	for _, w := range want {
		v, ok := d.PopBottom()
		if !ok || v != w {
			t.Fatalf("got (%v,%v), want (%d,true)", v, ok, w)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("expected empty")
	}
}

// After a foreign migration the ring keeps serving lock-free pops, and
// new owner pushes stack on top of the migrated elements.
func TestOwnerDequeForeignMigrationInterleaved(t *testing.T) {
	var d OwnerDeque[int]
	d.AddForeignAll([]int{10, 11, 12})
	v, _ := d.PopBottom() // migrates, returns 12
	if v != 12 {
		t.Fatalf("got %d, want 12", v)
	}
	d.PushBottom(99)
	want := []int{99, 11, 10}
	for _, w := range want {
		v, ok := d.PopBottom()
		if !ok || v != w {
			t.Fatalf("got (%v,%v), want (%d,true)", v, ok, w)
		}
	}
}

func TestOwnerDequePopBottomN(t *testing.T) {
	var d OwnerDeque[int]
	if got := d.PopBottomN(5); got != nil {
		t.Fatalf("PopBottomN on empty = %v, want nil", got)
	}
	for i := 0; i < 10; i++ {
		d.PushBottom(i)
	}
	d.AddForeign(100)
	if got := d.PopBottomN(0); got != nil {
		t.Fatalf("PopBottomN(0) = %v, want nil", got)
	}
	got := d.PopBottomN(4)
	for i, w := range []int{9, 8, 7, 6} {
		if got[i] != w {
			t.Fatalf("PopBottomN[%d] = %d, want %d", i, got[i], w)
		}
	}
	// Asking for more than present clamps and reaches into the overflow.
	got = d.PopBottomN(100)
	if len(got) != 7 || got[6] != 100 {
		t.Fatalf("PopBottomN(100) = %v, want 7 elements ending in 100", got)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d, want 0", d.Len())
	}
}

func TestOwnerDequeAddForeignIfUnder(t *testing.T) {
	var d OwnerDeque[int]
	for i := 0; i < 3; i++ {
		if !d.AddForeignIfUnder(i, 3) {
			t.Fatalf("add %d rejected below limit", i)
		}
	}
	if d.AddForeignIfUnder(99, 3) {
		t.Fatal("add accepted at limit")
	}
	d.PushBottom(7) // ring content counts toward the limit too
	if d.AddForeignIfUnder(99, 4) {
		t.Fatal("add accepted at limit including ring")
	}
	if !d.AddForeignIfUnder(99, 5) {
		t.Fatal("add rejected below limit")
	}
	if d.Len() != 5 {
		t.Fatalf("Len = %d, want 5", d.Len())
	}
}

func TestOwnerDequeStealInto(t *testing.T) {
	var d OwnerDeque[int]
	// Empty victim: take must not be consulted.
	buf := d.StealInto(nil, func(n int) int {
		t.Fatal("take called on empty victim")
		return 0
	})
	if len(buf) != 0 {
		t.Fatalf("stole %v from empty", buf)
	}
	for i := 0; i < 6; i++ {
		d.PushBottom(i)
	}
	d.AddForeignAll([]int{100, 101})
	var sawN int
	buf = d.StealInto(nil, func(n int) int { sawN = n; return 4 })
	if sawN != 8 {
		t.Fatalf("take saw n=%d, want 8", sawN)
	}
	// Overflow first (coldest, head-first), then the top of the ring.
	want := []int{100, 101, 0, 1}
	if len(buf) != len(want) {
		t.Fatalf("stole %v, want %v", buf, want)
	}
	for i, w := range want {
		if buf[i] != w {
			t.Fatalf("stole %v, want %v", buf, want)
		}
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	// take asking for more than n clamps.
	buf = d.StealAll(buf[:0])
	if len(buf) != 4 {
		t.Fatalf("StealAll got %v, want 4 elements", buf)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after drain", d.Len())
	}
}

func TestOwnerDequeGrowPreservesOrder(t *testing.T) {
	var d OwnerDeque[int]
	// Force wrapped state before a grow: advance top via steals, then
	// push past capacity so the copy has to unwrap.
	for i := 0; i < ownerMinCap-1; i++ {
		d.PushBottom(i)
	}
	d.StealInto(nil, func(int) int { return 3 }) // top = 3
	for i := ownerMinCap - 1; i < 40; i++ {
		d.PushBottom(i)
	}
	for i := 39; i >= 3; i-- {
		v, ok := d.PopBottom()
		if !ok || v != i {
			t.Fatalf("got (%v,%v), want (%d,true)", v, ok, i)
		}
	}
}

// TestOwnerDequeStealStress is the conservation / no-double-take check
// from the issue: one owner hammers its lock-free bottom while thieves
// batch-steal through StealInto. Every pushed value must be seen exactly
// once across owner pops, steals, and the final drain.
func TestOwnerDequeStealStress(t *testing.T) {
	const (
		thieves = 4
		pushes  = 20000
	)
	var d OwnerDeque[uint32]
	seen := make([]atomic.Uint32, pushes+thieves*100)
	mark := func(t2 *testing.T, v uint32) {
		if seen[v].Add(1) != 1 {
			t2.Errorf("value %d taken twice", v)
		}
	}
	var stop atomic.Bool
	var foreignAdded atomic.Int64
	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			buf := make([]uint32, 0, 16)
			next, end := pushes+id*100, pushes+(id+1)*100
			for !stop.Load() {
				buf = d.StealInto(buf[:0], func(n int) int {
					if n > 8 {
						return 8
					}
					return n
				})
				for _, v := range buf {
					mark(t, v)
				}
				// Thieves are also foreign adders: inject tagged values
				// through the overflow so migration races with steals.
				if len(buf) > 0 && next < end {
					d.AddForeign(uint32(next))
					foreignAdded.Add(1)
					next++
				}
				runtime.Gosched()
			}
		}(th)
	}
	// Owner: push everything, popping in bursts so the boundary case
	// (last element contended) is hit constantly.
	for i := 0; i < pushes; i++ {
		d.PushBottom(uint32(i))
		if i%3 == 0 {
			for j := 0; j < 2; j++ {
				if v, ok := d.PopBottom(); ok {
					mark(t, v)
				}
			}
		}
	}
	for {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		mark(t, v)
	}
	stop.Store(true)
	wg.Wait()
	for _, v := range d.StealAll(nil) {
		mark(t, v)
	}
	// Conservation: every pushed value came out exactly once. (The marks
	// already caught double-takes; this catches losses.)
	for i := 0; i < pushes; i++ {
		if seen[i].Load() != 1 {
			t.Fatalf("value %d seen %d times, want 1", i, seen[i].Load())
		}
	}
	var taggedSeen int64
	for i := pushes; i < len(seen); i++ {
		taggedSeen += int64(seen[i].Load())
	}
	if taggedSeen != foreignAdded.Load() {
		t.Fatalf("foreign-added values: saw %d, added %d", taggedSeen, foreignAdded.Load())
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after full drain", d.Len())
	}
}

// TestOwnerDequeOwnerVsSingleThief narrows the race to the interesting
// boundary: a one-element deque fought over by the owner and one thief.
// Exactly one side may win each round.
func TestOwnerDequeOwnerVsSingleThief(t *testing.T) {
	const rounds = 5000
	var d OwnerDeque[int]
	var popped int
	var wg sync.WaitGroup
	start := make(chan struct{})
	var stolenN atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			got := d.StealInto(nil, func(n int) int { return 1 })
			stolenN.Add(int64(len(got)))
			runtime.Gosched()
		}
	}()
	close(start)
	for i := 0; i < rounds; i++ {
		d.PushBottom(i)
		if _, ok := d.PopBottom(); ok {
			popped++
		}
	}
	wg.Wait()
	stolen := int(stolenN.Load())
	leftover := len(d.StealAll(nil))
	if popped+stolen+leftover != rounds {
		t.Fatalf("conservation: popped=%d + stolen=%d + leftover=%d != rounds=%d",
			popped, stolen, leftover, rounds)
	}
}

// TestOwnerDequeBatchClaimVsOwnerPops aims the owner's pops at the batch
// claim's hand-back window: thieves StealAll short spans while the owner
// pushes a few elements and pops a burst back, so a thief's one CAS over
// the whole span keeps colliding with owner pops that claimed its tail
// before the CAS landed and must be handed back. Every value must come
// out exactly once.
func TestOwnerDequeBatchClaimVsOwnerPops(t *testing.T) {
	// The hand-back window is a few instructions wide; force real
	// interleaving even when the host (or -cpu) gives us one proc.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const (
		thieves = 2
		spans   = 50000
		maxSpan = 6
	)
	var d OwnerDeque[uint32]
	seen := make([]atomic.Uint32, spans*maxSpan+1)
	mark := func(v uint32) {
		if v == 0 {
			t.Errorf("zero value delivered: a slot was read after it was cleared")
			return
		}
		if seen[v].Add(1) != 1 {
			t.Errorf("value %d taken twice", v)
		}
	}
	var stop atomic.Bool
	var wg, started sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			buf := make([]uint32, 0, 2*maxSpan)
			for !stop.Load() {
				buf = d.StealAll(buf[:0])
				for _, v := range buf {
					mark(v)
				}
				if len(buf) == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	started.Wait()
	next := uint32(1)
	for i := 0; i < spans; i++ {
		span := 1 + i%maxSpan
		for j := 0; j < span; j++ {
			d.PushBottom(next)
			next++
		}
		for j := 0; j < 1+i%4; j++ {
			if v, ok := d.PopBottom(); ok {
				mark(v)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	for _, v := range d.StealAll(nil) {
		mark(v)
	}
	for v := uint32(1); v < next; v++ {
		if n := seen[v].Load(); n != 1 {
			t.Fatalf("value %d seen %d times, want 1", v, n)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after full drain", d.Len())
	}
}

// TestOwnerDequeBatchClaimWraparound pins the push path's reuse floor: a
// thief's batch CAS raises top before the thief reads the claimed slots,
// so an owner sizing its pushes against that top alone would wrap onto
// a slot still being read. Each round starts a fresh 8-slot ring that
// the owner keeps at cap-2 (by Len, which reads the raised top) while a
// thief takes half at a time; under -race an unordered wraparound write
// is reported, and a clobbered slot shows up as a zero, a duplicate or
// a loss.
func TestOwnerDequeBatchClaimWraparound(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const (
		rounds   = 200
		perRound = 300
		keep     = ownerMinCap - 2
	)
	seen := make([]atomic.Uint32, rounds*perRound+1)
	mark := func(v uint32) {
		if v == 0 {
			t.Errorf("zero value delivered: a slot was overwritten mid-claim")
			return
		}
		if seen[v].Add(1) != 1 {
			t.Errorf("value %d taken twice", v)
		}
	}
	half := func(n int) int { return (n + 1) / 2 }
	next := uint32(1)
	for r := 0; r < rounds; r++ {
		var d OwnerDeque[uint32]
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]uint32, 0, ownerMinCap)
			for !stop.Load() {
				buf = d.StealInto(buf[:0], half)
				for _, v := range buf {
					mark(v)
				}
				if len(buf) == 0 {
					runtime.Gosched()
				}
			}
		}()
		for i := 0; i < perRound; i++ {
			for d.Len() >= keep {
				runtime.Gosched()
			}
			d.PushBottom(next)
			next++
			if i%7 == 6 {
				if v, ok := d.PopBottom(); ok {
					mark(v)
				}
			}
		}
		stop.Store(true)
		<-done
		for _, v := range d.StealAll(nil) {
			mark(v)
		}
	}
	for v := uint32(1); v < next; v++ {
		if n := seen[v].Load(); n != 1 {
			t.Fatalf("value %d seen %d times, want 1", v, n)
		}
	}
}

// TestOwnerDequeLenNoFalseEmptyDuringMigration pins the no-false-empty
// contract between popForeign and the lock-free Len: the migration
// publishes the enlarged ring span before clearing fcount, and Len
// loads fcount before the span, so a reader overlapping the migration
// in any way overcounts rather than reading 0. The searchers' coverage
// pass certifies emptiness from exactly these lock-free reads at a
// stable version — and a migration (it runs inside the owner's Get)
// bumps no version — so a false-empty window would let a Probe falsely
// succeed while n-1 elements exist. Each iteration the owner parks the
// readers, restocks the overflow and drains the ring (those ops DO bump
// the pool version in real use, so tearing across them is excused by
// the re-arm rule and must stay outside the measurement window), then
// lets the readers hammer Len while the only racing mutation is one
// overflow migration that keeps the deque at one element or more.
func TestOwnerDequeLenNoFalseEmptyDuringMigration(t *testing.T) {
	// The false-empty windows are a few instructions wide; on a single-P
	// runtime the readers never land inside one, so force real
	// interleaving even when the host (or -cpu) gives us one proc.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const (
		readers = 3
		iters   = 3000
		reads   = 32
	)
	var d OwnerDeque[int]
	d.PushBottom(0) // ring holds one element at the top of every cycle
	var sawEmpty atomic.Bool
	ready := make([]chan struct{}, readers)
	done := make(chan struct{}, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		ready[r] = make(chan struct{})
		wg.Add(1)
		go func(ch chan struct{}) {
			defer wg.Done()
			for range ch {
				for k := 0; k < reads; k++ {
					if d.Len() == 0 {
						sawEmpty.Store(true)
					}
				}
				done <- struct{}{}
			}
		}(ready[r])
	}
	for i := 0; i < iters && !sawEmpty.Load(); i++ {
		// Outside the window: overflow 0→2, then drain the ring's one
		// element, leaving {ring: 0, overflow: 2}.
		d.AddForeign(i)
		d.AddForeign(i)
		if _, ok := d.PopBottom(); !ok {
			t.Fatal("ring drain failed")
		}
		// Window: the pop below migrates both overflow elements into the
		// ring and takes one — the deque's size never drops below one,
		// so no reader may observe zero.
		for _, ch := range ready {
			ch <- struct{}{}
		}
		if _, ok := d.PopBottom(); !ok {
			t.Fatal("migration pop failed")
		}
		for r := 0; r < readers; r++ {
			<-done
		}
	}
	for _, ch := range ready {
		close(ch)
	}
	wg.Wait()
	if sawEmpty.Load() {
		t.Fatal("lock-free Len read 0 while the deque held elements (migration published a false-empty window)")
	}
}

// TestOwnerDequeLayout is the false-sharing audit for the deque header:
// each cache line has one class of writer. The owner line holds what
// the owner writes or alone polls on every push (bottom, buf, the
// rarely written fcount, the cached floor); top, which thieves and the
// owner's last-element CAS write, has a line to itself; the steal line
// holds what only a steal section writes (mu, claimFrom, the overflow).
// The struct tiles to whole lines, and the trailing pad keeps the next
// segment's bottom (segments sit in one slice) off the steal line.
func TestOwnerDequeLayout(t *testing.T) {
	var d OwnerDeque[int]
	const line = 64
	lineOf := func(off uintptr) uintptr { return off / line }
	end := func(off, size uintptr) uintptr { return off + size - 1 }
	for name, f := range map[string][2]uintptr{
		"bottom": {unsafe.Offsetof(d.bottom), unsafe.Sizeof(d.bottom)},
		"buf":    {unsafe.Offsetof(d.buf), unsafe.Sizeof(d.buf)},
		"fcount": {unsafe.Offsetof(d.fcount), unsafe.Sizeof(d.fcount)},
		"floor":  {unsafe.Offsetof(d.floor), unsafe.Sizeof(d.floor)},
	} {
		if end(f[0], f[1]) >= line {
			t.Errorf("%s ends at byte %d, want it in the owner line [0, %d)", name, end(f[0], f[1]), line)
		}
	}
	offTop := unsafe.Offsetof(d.top)
	if offTop%line != 0 {
		t.Errorf("top at byte %d, want it to start a line", offTop)
	}
	offMu := unsafe.Offsetof(d.mu)
	if offMu-offTop < line {
		t.Errorf("mu is %d bytes after top, want >= %d: top must be alone on its line", offMu-offTop, line)
	}
	steal := lineOf(offMu)
	for name, f := range map[string][2]uintptr{
		"mu":        {offMu, unsafe.Sizeof(d.mu)},
		"claimFrom": {unsafe.Offsetof(d.claimFrom), unsafe.Sizeof(d.claimFrom)},
		"foreign":   {unsafe.Offsetof(d.foreign), unsafe.Sizeof(d.foreign)},
	} {
		if lineOf(f[0]) != steal || lineOf(end(f[0], f[1])) != steal {
			t.Errorf("%s spans bytes [%d, %d], want it on the steal line %d", name, f[0], end(f[0], f[1]), steal)
		}
	}
	size := unsafe.Sizeof(d)
	if size != 4*line {
		t.Errorf("Sizeof(OwnerDeque) = %d, want %d (four whole lines)", size, 4*line)
	}
	stealEnd := end(unsafe.Offsetof(d.foreign), unsafe.Sizeof(d.foreign))
	if size-stealEnd <= line {
		t.Errorf("the steal line ends %d bytes before the struct end, want > %d (neighbor's bottom)", size-stealEnd, line)
	}
}

// TestOwnerDequeStaleFloorGrows pins the cached reuse floor. The owner
// laps an 8-slot ring several times while synchronous steals raise top,
// so its cached floor falls behind. Then a thief's take blocks, holding
// a claim section open with claimFrom set: the owner may fill only up to
// the margin above the section's start, lock-free. Once the thief
// resumes and its batch CAS is visible (the owner sees it through Len,
// which orders the CAS but not the slot reads after it), the owner
// pushes past capacity. A floor of top alone would put those pushes on
// the slots the thief is still reading, which -race reports and which
// shows here as a zero, a duplicate or a loss; the reuse floor sends
// the push to refresh and then to grow under mu.
func TestOwnerDequeStaleFloorGrows(t *testing.T) {
	const keep = ownerMinCap - 2
	var d OwnerDeque[uint32]
	var delivered []uint32
	next := uint32(1)
	push := func() { d.PushBottom(next); next++ }
	half := func(n int) int { return (n + 1) / 2 }
	for lap := 0; lap < 4*ownerMinCap; lap++ {
		for d.Len() < keep {
			push()
		}
		delivered = d.StealInto(delivered, half)
	}
	if got := len(d.buf); got != ownerMinCap {
		t.Fatalf("ring grew to %d while lapping at cap-2", got)
	}
	t0 := d.top.Load()
	if d.floor >= t0 {
		t.Fatalf("cached floor %d is not behind top %d; the test needs a stale floor", d.floor, t0)
	}
	n0 := d.Len()

	entered, release := make(chan struct{}), make(chan struct{})
	stolen := make(chan []uint32, 1)
	go func() {
		stolen <- d.StealInto(nil, func(n int) int {
			close(entered)
			<-release
			return half(n)
		})
	}()
	<-entered
	// The section is open at t0 and top has not moved: the owner fills
	// to the margin, refreshing the stale floor to t0 on the way, with
	// no lock and no growth.
	for d.Len() < ownerMinCap-1 {
		push()
	}
	if got := d.floor; got != t0 {
		t.Errorf("refreshed floor = %d with a section open at %d", got, t0)
	}
	if got := len(d.buf); got != ownerMinCap {
		t.Errorf("ring grew to %d below the margin", got)
	}
	close(release)
	for d.Len() > ownerMinCap-1-half(n0) {
		runtime.Gosched()
	}
	for i := 0; i < 3*ownerMinCap; i++ {
		push()
	}
	if got := len(d.buf); got <= ownerMinCap {
		t.Fatalf("ring stayed at %d slots after pushing past capacity", got)
	}
	delivered = append(delivered, <-stolen...)
	for {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		delivered = append(delivered, v)
	}
	seen := make([]int, next)
	for _, v := range delivered {
		if v == 0 {
			t.Fatal("zero value delivered: a slot was overwritten mid-claim")
		}
		seen[v]++
	}
	for v := uint32(1); v < next; v++ {
		if seen[v] != 1 {
			t.Fatalf("value %d delivered %d times, want 1", v, seen[v])
		}
	}
}

// BenchmarkOwnerDequeStealContended is the segment-layer row for the
// steal path under contention: StealInto takes half the segment while an
// owner goroutine keeps refilling it to backlog elements from the
// bottom. ns/op is one StealInto that brought something back (empty
// calls in between count toward its time); elements/steal is how many
// it brought.
func BenchmarkOwnerDequeStealContended(b *testing.B) {
	const backlog = 64
	fill := make([]int, backlog)
	benchStealHalf(b, backlog, func(d *OwnerDeque[int]) {
		if n := d.Len(); n < backlog {
			d.PushBottomAll(fill[:backlog-n])
		} else {
			runtime.Gosched()
		}
	})
}

// BenchmarkOwnerDequeStealSpinningOwner is the same row in handoff's
// shape: the owner keeps a backlog of 16 by spinning on Len and pushing
// one element at a time, so it re-reads its own indices between every
// two steal-side writes. The spin yields every 256 full iterations so
// the benchmark finishes at GOMAXPROCS=1.
func BenchmarkOwnerDequeStealSpinningOwner(b *testing.B) {
	const backlog = 16
	spins := 0
	benchStealHalf(b, backlog, func(d *OwnerDeque[int]) {
		if d.Len() < backlog {
			d.PushBottom(spins)
			return
		}
		if spins++; spins%256 == 0 {
			runtime.Gosched()
		}
	})
}

// benchStealHalf times b.N nonempty StealInto calls, each taking half,
// while an owner goroutine calls step in a loop to keep the deque
// stocked with up to backlog elements.
func benchStealHalf(b *testing.B, backlog int, step func(d *OwnerDeque[int])) {
	var d OwnerDeque[int]
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			step(&d)
		}
	}()
	half := func(n int) int { return (n + 1) / 2 }
	buf := make([]int, 0, backlog)
	stolen := 0
	b.ResetTimer()
	for steals := 0; steals < b.N; {
		buf = d.StealInto(buf[:0], half)
		if len(buf) == 0 {
			runtime.Gosched()
			continue
		}
		stolen += len(buf)
		steals++
	}
	b.StopTimer()
	stop.Store(true)
	<-done
	b.ReportMetric(float64(stolen)/float64(b.N), "elements/steal")
}

// BenchmarkOwnerDequePushPop is the segment-layer row for the owner
// path, the ring under every Put/Get. size=1 pushes one element and pops
// it, so every pop is the last-element CAS race with thieves; depth=32
// pushes 32 and pops them back, forkjoin's shape, where all but the last
// pop take the plain path. ns/element is one push plus one pop.
func BenchmarkOwnerDequePushPop(b *testing.B) {
	for _, depth := range []int{1, 32} {
		name := fmt.Sprintf("depth=%d", depth)
		if depth == 1 {
			name = "size=1"
		}
		b.Run(name, func(b *testing.B) {
			var d OwnerDeque[int]
			for i := 0; i < b.N; i++ {
				for j := 0; j < depth; j++ {
					d.PushBottom(j)
				}
				for j := 0; j < depth; j++ {
					d.PopBottom()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*depth), "ns/element")
		})
	}
}
