// Package sim provides the low-level simulation primitives shared by every
// other package in the repository: a deterministic pseudo-random number
// generator, a discrete-event queue ordered by cycle, and periodic interval
// timers used to trigger reconfiguration epochs.
//
// Everything in this package is deterministic: given the same seed the whole
// simulator produces bit-identical results, which the test suite relies on.
package sim

import "math/bits"

// Rng is a small, fast, deterministic PRNG (xoshiro256**). It is not safe for
// concurrent use; every simulated component owns its own stream, derived from
// a global seed and a component identifier, so simulations are reproducible
// regardless of scheduling.
type Rng struct {
	s [4]uint64
}

// splitMix64 is used to seed the generator state from a single word.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRng returns a generator seeded from seed. Two generators with the same
// seed produce identical streams.
func NewRng(seed uint64) *Rng {
	r := &Rng{}
	z := seed
	for i := range r.s {
		z = splitMix64(z)
		r.s[i] = z
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// NewStream derives an independent generator for a sub-component. The stream
// index is mixed into the seed so streams do not overlap in practice.
func NewStream(seed uint64, stream uint64) *Rng {
	return NewRng(splitMix64(seed^splitMix64(stream+0x632be59bd9b4e019)) + stream)
}

// State returns the generator's internal state so a checkpoint can capture
// the stream position exactly.
func (r *Rng) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with one previously
// captured by State. The all-zero state is rejected (it is a fixed point of
// xoshiro and can never be produced by NewRng).
func (r *Rng) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		panic("sim: SetState with all-zero state")
	}
	r.s = s
}

// Uint64 returns the next 64 random bits.
func (r *Rng) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint32 returns 32 random bits.
func (r *Rng) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rng) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Geometric returns a sample from a geometric distribution with the given
// success probability p in (0, 1]; the result counts failures before the
// first success (support {0, 1, 2, ...}).
func (r *Rng) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("sim: Geometric with non-positive p")
	}
	// Inverse-CDF sampling; cheap and branch-free compared to looping.
	u := r.Float64()
	// log(1-u)/log(1-p), computed without math import via Ln approximation is
	// not worth it; use the loop for small expected counts, CDF otherwise.
	n := 0
	q := 1 - p
	acc := q
	for u < acc && n < 1<<20 {
		n++
		acc *= q
	}
	return n
}

// Perm fills dst with a random permutation of [0, len(dst)).
func (r *Rng) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Exponential returns a sample from an exponential distribution with the
// given mean, computed via inverse CDF with a table-free log approximation.
func (r *Rng) Exponential(mean float64) float64 {
	// -mean * ln(U). We avoid importing math in the hot path by using the
	// standard library only here; math.Log is fine.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * ln(u)
}

// ln is a thin wrapper so the dependency on math stays in one place.
func ln(x float64) float64 { return mathLog(x) }
