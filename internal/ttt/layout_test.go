package ttt

import (
	"testing"
	"unsafe"
)

// TestNodeLayout pins Node to 48 bytes. Every position the search
// generates is one Node, allocated in its parent's slab, so the node's
// size sets the application's whole allocation stream: at 56 bytes
// (then in the 64-byte class) it measurably raised tasktree's max RSS.
func TestNodeLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 48 {
		t.Errorf("Node is %d bytes; want <= 48", sz)
	}
}
