// Package segment implements the local components of a concurrent pool.
//
// Manber's pool partitions its elements into one segment per processor.
// The paper uses two representations, kept here as Deque and Counter:
//
//   - arbitrary-element segments with O(1) add, O(1) remove, and split
//     (Deque here; Manber's original achieves O(1) split with a linked
//     representation — ours is an amortized-O(1) ring buffer whose split
//     is O(k) in the number of moved elements, which is the same cost as
//     the block transfer of stolen elements the paper notes it elided);
//   - a simplified representation storing only the element count (Counter
//     here), which is what the paper actually measures: "we simplified the
//     segments, representing them as a single counter that is atomically
//     added to, subtracted from, or split in half". No pool runs on it;
//     it is the reference model the segment fuzzer and the search tests
//     check against.
//
// Deque and Counter are NOT synchronized: the simulator and the keyed
// pool own their locking, because the locking regime is precisely what
// the experiments vary. OwnerDeque, the real pool's segment, carries its
// own synchronization: a lock-free owner bottom, with thieves serialized
// under the segment lock.
package segment

// Deque is an unordered element segment backed by a growable ring buffer.
// Add pushes at the tail; Remove pops at the tail (LIFO within a segment —
// pools impose no ordering, and LIFO preserves locality for task loads);
// SplitInto removes roughly half the elements from the head (the coldest
// ones) into another segment, implementing the steal protocol.
//
// The zero value is an empty, usable segment.
type Deque[T any] struct {
	buf  []T
	head int // index of first element
	n    int // number of elements
}

// Len returns the number of elements held.
func (d *Deque[T]) Len() int { return d.n }

// Empty reports whether the segment holds no elements.
func (d *Deque[T]) Empty() bool { return d.n == 0 }

// Add inserts an element. Amortized O(1).
func (d *Deque[T]) Add(v T) {
	d.grow(1)
	d.buf[(d.head+d.n)%len(d.buf)] = v
	d.n++
}

// Remove extracts an arbitrary element (the most recently added).
// It returns false if the segment is empty.
func (d *Deque[T]) Remove() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	idx := (d.head + d.n - 1) % len(d.buf)
	v := d.buf[idx]
	d.buf[idx] = zero // release for GC
	d.n--
	return v, true
}

// AddAll inserts every element of vs. It grows the buffer at most once
// and bulk-copies in at most two contiguous spans (the ring wrap), so a
// batch of k elements costs one capacity check and two copies instead of
// k per-element stores — the structural half of the batch-amortization
// the pool's PutAll exposes.
func (d *Deque[T]) AddAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	d.grow(len(vs))
	start := d.head + d.n
	if start >= len(d.buf) {
		start -= len(d.buf)
	}
	copied := copy(d.buf[start:], vs)
	copy(d.buf, vs[copied:])
	d.n += len(vs)
}

// RemoveN extracts up to k elements (the most recently added first) and
// returns them. It returns nil when k <= 0 or the segment is empty. The
// tail walk keeps the ring index with compare-and-wrap arithmetic rather
// than a modulo per element.
func (d *Deque[T]) RemoveN(k int) []T {
	if k > d.n {
		k = d.n
	}
	if k <= 0 {
		return nil
	}
	out := make([]T, k)
	var zero T
	idx := (d.head + d.n - 1) % len(d.buf)
	for i := 0; i < k; i++ {
		out[i] = d.buf[idx]
		d.buf[idx] = zero // release for GC
		if idx == 0 {
			idx = len(d.buf)
		}
		idx--
	}
	d.n -= k
	if d.n == 0 {
		d.head = 0
	}
	return out
}

// SplitInto moves ceil(n/2) elements from d into dst and returns the number
// moved. Following the paper: "it steals roughly half of the elements ...
// unless there is only one element in the remote segment, in which case
// that element is taken immediately" — a 1-element segment yields exactly
// that element. Splitting an empty segment moves nothing.
func (d *Deque[T]) SplitInto(dst *Deque[T]) int {
	take := SplitCount(d.n)
	d.moveInto(dst, take)
	return take
}

// TakeInto moves up to k elements from d into dst and returns the number
// moved. It implements the steal-one ablation policy and partial transfers.
func (d *Deque[T]) TakeInto(dst *Deque[T], k int) int {
	if k > d.n {
		k = d.n
	}
	if k < 0 {
		k = 0
	}
	d.moveInto(dst, k)
	return k
}

// TakeOut removes up to k elements from the head of d (the coldest ones,
// the ones a steal takes), appending them to buf and returning the
// extended slice. It moves exactly the elements TakeInto(dst, k) would,
// in the same order, but into a caller-owned buffer instead of another
// segment — the primitive behind short-lock-hold steals: the thief
// reserves the victim's share into its private buffer under the victim's
// lock alone, then deposits the surplus into its own segment after
// unlocking. Passing a buffer with spare capacity makes TakeOut
// allocation-free.
func (d *Deque[T]) TakeOut(buf []T, k int) []T {
	if k > d.n {
		k = d.n
	}
	var zero T
	for i := 0; i < k; i++ {
		buf = append(buf, d.buf[d.head])
		d.buf[d.head] = zero
		d.head = (d.head + 1) % len(d.buf)
	}
	if k > 0 {
		d.n -= k
		if d.n == 0 {
			d.head = 0
		}
	}
	return buf
}

// moveInto transfers take elements from the head of d to dst.
func (d *Deque[T]) moveInto(dst *Deque[T], take int) {
	dst.grow(take)
	var zero T
	for i := 0; i < take; i++ {
		v := d.buf[d.head]
		d.buf[d.head] = zero
		d.head = (d.head + 1) % len(d.buf)
		dst.buf[(dst.head+dst.n)%len(dst.buf)] = v
		dst.n++
	}
	d.n -= take
	if d.n == 0 {
		d.head = 0
	}
}

// grow ensures capacity for extra more elements.
func (d *Deque[T]) grow(extra int) {
	need := d.n + extra
	if need <= len(d.buf) {
		return
	}
	newCap := len(d.buf) * 2
	if newCap < 8 {
		newCap = 8
	}
	for newCap < need {
		newCap *= 2
	}
	buf := make([]T, newCap)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = buf
	d.head = 0
}

// Drain removes and returns all elements, leaving the segment empty.
func (d *Deque[T]) Drain() []T {
	out := make([]T, 0, d.n)
	for {
		v, ok := d.Remove()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// SplitCount returns the number of elements a steal takes from a segment
// holding n elements: ceil(n/2), so a single remaining element is taken
// outright and a steal never leaves the thief empty-handed on a non-empty
// segment.
func SplitCount(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + 1) / 2
}
