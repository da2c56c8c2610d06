// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// Experiments in this repo must be reproducible: every trial is driven by an
// explicit seed, and every virtual processor owns an independent stream.
// The math/rand global generator is deliberately avoided because it is
// process-global and lock-protected; these generators are value types that
// can be embedded per goroutine or per virtual processor with no sharing.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny 64-bit generator used mainly to seed other
//     generators and for stateless hashing of seeds.
//   - Xoshiro256: xoshiro256**, a high-quality general-purpose generator
//     with 256 bits of state, used for all workload decisions.
package rng

import "math/bits"

// SplitMix64 is Steele, Lea & Flood's splitmix64 generator. The zero value
// is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes a seed into a well-distributed 64-bit value without mutating
// any state. It is the pure-function form of a single SplitMix64 step and
// is used to derive independent sub-seeds (for example, per-processor
// streams from a trial seed).
func Mix(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SubSeed derives the stream-th sub-seed of seed. Distinct (seed, stream)
// pairs yield independent-looking seeds, so each virtual processor in a
// trial can own its own generator.
func SubSeed(seed uint64, stream int) uint64 {
	return Mix(seed ^ Mix(uint64(stream)+0x6a09e667f3bcc909))
}

// Xoshiro256 is Blackman & Vigna's xoshiro256** 1.0 generator.
// It must be created with NewXoshiro256; the zero value is invalid
// (all-zero state is a fixed point) and Next will panic on it.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is derived from seed via
// SplitMix64, per the authors' recommendation. Any seed (including 0) is
// acceptable.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	var x Xoshiro256
	x.Seed(seed)
	return &x
}

// Seed resets the generator state from seed.
func (x *Xoshiro256) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// The all-zero state is the only invalid state and cannot be produced
	// by four SplitMix64 outputs in practice, but guard anyway.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
}

// Next returns the next 64-bit value in the sequence.
func (x *Xoshiro256) Next() uint64 {
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		panic("rng: Xoshiro256 used before seeding")
	}
	result := bits.RotateLeft64(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = bits.RotateLeft64(x.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := x.Next()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1) with 53 bits of
// precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// Bool returns true with probability p. Probabilities outside [0, 1] are
// clamped.
func (x *Xoshiro256) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return x.Float64() < p
}
