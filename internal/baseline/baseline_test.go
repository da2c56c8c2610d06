package baseline

import (
	"sync"
	"testing"
)

func TestGlobalStackLIFO(t *testing.T) {
	s := NewGlobalStack[int]()
	if _, ok := s.Get(); ok {
		t.Fatal("empty stack Get should fail")
	}
	for i := 0; i < 10; i++ {
		s.Put(i)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 9; i >= 0; i-- {
		v, ok := s.Get()
		if !ok || v != i {
			t.Fatalf("Get = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
}

func TestAllBaselinesConserveConcurrently(t *testing.T) {
	t.Run("stack", func(t *testing.T) {
		w := NewGlobalStack[int]()
		const workers = 8
		const perWorker = 5000
		var wg sync.WaitGroup
		var mu sync.Mutex
		seen := map[int]bool{}
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for j := 0; j < perWorker; j++ {
					w.Put(id*perWorker + j)
					if v, ok := w.Get(); ok {
						mu.Lock()
						if seen[v] {
							mu.Unlock()
							t.Errorf("element %d delivered twice", v)
							return
						}
						seen[v] = true
						mu.Unlock()
					}
				}
			}(i)
		}
		wg.Wait()
		remaining := 0
		for {
			v, ok := w.Get()
			if !ok {
				break
			}
			if seen[v] {
				t.Fatalf("element %d delivered twice at drain", v)
			}
			seen[v] = true
			remaining++
		}
		if len(seen) != workers*perWorker {
			t.Fatalf("conserved %d, want %d", len(seen), workers*perWorker)
		}
	})
}

func BenchmarkGlobalStackPutGet(b *testing.B) {
	s := NewGlobalStack[int]()
	for i := 0; i < b.N; i++ {
		s.Put(i)
		s.Get()
	}
}
