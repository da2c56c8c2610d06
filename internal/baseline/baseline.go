// Package baseline provides the centralized work list the paper compares
// concurrent pools against.
//
// Section 4.4: "The original version that used a stack with a global lock
// for the work list was 40% slower and had worse speedup (only 10.7 for 16
// processors)." GlobalStack is that comparator.
package baseline

import "sync"

// GlobalStack is a LIFO work list protected by a single global mutex —
// the paper's original tic-tac-toe work list.
type GlobalStack[T any] struct {
	mu    sync.Mutex
	items []T
}

// NewGlobalStack returns an empty stack.
func NewGlobalStack[T any]() *GlobalStack[T] { return &GlobalStack[T]{} }

// Put pushes an element.
func (s *GlobalStack[T]) Put(v T) {
	s.mu.Lock()
	s.items = append(s.items, v)
	s.mu.Unlock()
}

// Get pops the most recently pushed element.
func (s *GlobalStack[T]) Get() (T, bool) {
	var zero T
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.items)
	if n == 0 {
		return zero, false
	}
	v := s.items[n-1]
	s.items[n-1] = zero
	s.items = s.items[:n-1]
	return v, true
}

// Len returns the current size.
func (s *GlobalStack[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}
