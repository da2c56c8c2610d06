package ttt

import (
	"testing"
	"unsafe"
)

// TestNodeLayout pins Node to 48 bytes. Every position the search
// generates is one Node, built in its parent's slab, so the node's size
// sets the slab's: at 56 bytes (then in the 64-byte class) it
// measurably raised tasktree's max RSS.
func TestNodeLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 48 {
		t.Errorf("Node is %d bytes; want <= 48", sz)
	}
}

// TestEngineLayout pins Engine.done to a cache line of its own. Every
// worker polls done on every Step, and the workers Add to expanded and
// evaluated: on one line, each Add would take the line from the pollers.
func TestEngineLayout(t *testing.T) {
	var e Engine
	done := unsafe.Offsetof(e.done)
	for name, off := range map[string]uintptr{
		"expanded":  unsafe.Offsetof(e.expanded),
		"evaluated": unsafe.Offsetof(e.evaluated),
		"rootValue": unsafe.Offsetof(e.rootValue),
	} {
		if off < done+64 {
			t.Errorf("Engine.%s at offset %d, within 64 bytes of done at %d", name, off, done)
		}
	}
}
