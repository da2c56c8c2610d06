package ttt

import (
	"testing"
	"unsafe"
)

// TestNodeLayout pins Node to the 48-byte allocation size class. Every
// position the search generates is one Node, so the node is the
// application's whole allocation stream: at 56 bytes it rounds up to the
// 64-byte class, which measurably raised tasktree's max RSS.
func TestNodeLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 48 {
		t.Errorf("Node is %d bytes; want <= 48", sz)
	}
}
