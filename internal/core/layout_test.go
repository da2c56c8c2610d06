package core

import (
	"testing"
	"unsafe"
)

// TestPoolLayout pins where the pool-wide words every search touches
// sit. A Pool of 481 to 512 bytes lands in the allocator's 512-byte size
// class, whose objects start on a cache-line boundary, and lookers, open,
// moving, version and closed then share one line of their own.
func TestPoolLayout(t *testing.T) {
	var p Pool[int]
	if sz := unsafe.Sizeof(p); sz <= 480 || sz > 512 {
		t.Errorf("Pool is %d bytes; want 481..512 (the 512-byte size class)", sz)
	}
	line := unsafe.Offsetof(p.lookers) / 64
	offs := map[string]uintptr{
		"lookers": unsafe.Offsetof(p.lookers),
		"open":    unsafe.Offsetof(p.open),
		"moving":  unsafe.Offsetof(p.moving),
		"version": unsafe.Offsetof(p.version),
		"closed":  unsafe.Offsetof(p.closed),
	}
	for name, off := range offs {
		if off/64 != line {
			t.Errorf("%s at offset %d, off the line at %d that holds lookers", name, off, line*64)
		}
	}
}
