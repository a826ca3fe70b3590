// Package xrand provides a small, deterministic, allocation-free random
// number generator used throughout the simulator.
//
// The simulator must be fully reproducible: every randomized choice (access
// tree root placement, fixed-home selection, workload generation) is drawn
// from an explicitly seeded xoshiro256** generator. No global state is used,
// so independent components can own independent streams.
package xrand

import "diva/internal/wire"

// RNG is a xoshiro256** pseudo random number generator. The zero value is
// not usable; construct with New.
type RNG struct {
	s [4]uint64
}

// splitmix64 is used to seed the xoshiro state from a single word, as
// recommended by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Distinct seeds give
// independent-looking streams; the same seed always gives the same stream.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed restarts r, in place, on the stream New(seed) returns.
func (r *RNG) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives a new independent generator from r. The derived stream is a
// pure function of r's current state, so splitting is itself deterministic.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

// State is the full internal state of an RNG, exposed so a machine snapshot
// can capture a stream mid-sequence and a fork can resume it exactly.
type State [4]uint64

// State returns the generator's current internal state.
func (r *RNG) State() State { return r.s }

// Append appends the state to b as four words.
func (s State) Append(b []byte) []byte {
	for _, w := range s {
		b = wire.AppendUint64(b, w)
	}
	return b
}

// ReadState reads a State that Append wrote.
func ReadState(r *wire.Reader) State {
	var s State
	for i := range s {
		s[i] = r.Uint64()
	}
	return s
}

// SetState overwrites the generator's internal state. Restoring a state
// obtained from State resumes the stream at exactly the same point.
func (r *RNG) SetState(s State) { r.s = s }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
