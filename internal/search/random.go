package search

import "pools/internal/rng"

// RandomSearcher implements the paper's random algorithm: "chooses segments
// at random until it finds a non-empty segment to split."
type RandomSearcher struct {
	seed uint64
	rng  *rng.Xoshiro256
}

// NewRandomSearcher returns a random searcher with a private deterministic
// PRNG derived from seed.
func NewRandomSearcher(seed uint64) *RandomSearcher {
	return &RandomSearcher{seed: seed, rng: rng.NewXoshiro256(seed)}
}

var _ Searcher = (*RandomSearcher)(nil)

// Kind returns Random.
func (r *RandomSearcher) Kind() Kind { return Random }

// Reset reseeds the private PRNG so a trial replays identically.
func (r *RandomSearcher) Reset() { r.rng.Seed(r.seed) }

// Search probes uniformly random segments until a steal succeeds or the
// world aborts.
func (r *RandomSearcher) Search(w World) Result {
	n := w.Segments()
	examined := 0
	for !w.Aborted() {
		s := r.rng.Intn(n)
		got := w.TrySteal(s)
		examined++
		if got > 0 {
			return Result{Got: got, FoundAt: s, Examined: examined}
		}
	}
	return Result{FoundAt: -1, Examined: examined}
}
