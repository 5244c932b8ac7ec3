package sched

import "math/bits"

// Stream is a small splittable pseudo-random generator (a SplitMix64 core)
// for the parallel subsystem (package par): hybrid workers need
// statistically independent streams that are deterministically derived from
// one run seed, so that a parallel run is reproducible per (seed, worker
// count) without any coordination between workers.
//
// Stream derivation scheme (the contract par documents and tests pin):
// stream i of seed s starts from state
//
//	mix64(uint64(s) + (uint64(i)+1) · 0x9E3779B97F4A7C15)
//
// i.e. the seed advanced i+1 golden-gamma increments and finalized through
// the SplitMix64 mixer. Streams with distinct indices (or distinct seeds)
// are decorrelated by the mixer's avalanche; index 0 is NOT the same
// sequence as math/rand's stream for the seed — Stream is a distinct
// generator family from lfRing, used only where the sequential-equivalence
// contract of Batcher does not apply.
//
// The zero Stream is valid but degenerate (it always yields the mix of 0);
// obtain streams through NewStream/Split. Methods with pointer receivers
// mutate the stream; a Stream must not be shared between goroutines.
type Stream struct {
	state uint64
}

// goldenGamma is the SplitMix64 increment (odd, ≈ 2⁶⁴/φ).
const goldenGamma = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output mixer (Stafford variant 13).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewStream returns stream 0 of the given seed.
func NewStream(seed int64) Stream { return Stream{state: streamState(seed, 0)} }

// SplitStream returns stream i of the given seed — the documented
// derivation scheme above. SplitStream(s, 0) == NewStream(s).
func SplitStream(seed int64, i int) Stream { return Stream{state: streamState(seed, i)} }

func streamState(seed int64, i int) uint64 {
	return mix64(uint64(seed) + (uint64(i)+1)*goldenGamma)
}

// Uint64 returns the next 64 raw bits.
func (s *Stream) Uint64() uint64 {
	s.state += goldenGamma
	return mix64(s.state)
}

// Fill overwrites dst with the next len(dst) draws of the stream — one
// SplitMix64 sweep with the generator state carried in a register instead of
// a load/store round trip per draw. The output is byte-identical to len(dst)
// successive Uint64 calls (the stream-identity tests pin this), so block
// filling is purely an execution strategy, never a contract change.
func (s *Stream) Fill(dst []uint64) {
	state := s.state
	for i := range dst {
		state += goldenGamma
		dst[i] = mix64(state)
	}
	s.state = state
}

// Uint32 returns the next 32 raw bits (the high half of a 64-bit draw).
func (s *Stream) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Intn returns a uniform int in [0, n); it panics for n ≤ 0. The draw is
// exactly uniform (Lemire's multiply-shift with rejection), at one 64-bit
// draw per call except with probability < n/2⁶⁴.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("sched: Stream.Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), un)
	if lo < un {
		// Rejection zone: discard the draws mapping unevenly.
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), un)
		}
	}
	return int(hi)
}
