package sched

import "math/bits"

// rngBufLen is BufStream's block-fill width: 256 draws (2 KiB) — large
// enough that the refill sweep amortizes to a fraction of a nanosecond per
// draw, small enough to stay L1-resident next to the consumer's own hot
// state.
const rngBufLen = 256

// BufStream drains a Stream through a block-filled buffer: one Fill sweep
// per rngBufLen draws, then each Uint64 is a buffer load. The draw sequence
// is byte-identical to the wrapped Stream's — Uint64, Uint32 and Intn all
// consume the exact 64-bit draws their Stream counterparts would, in the
// same order — so the hot paths (the count sampler, the hybrid workers) can
// buffer their draws without changing any execution, and every existing
// stream-equivalence and determinism test pins the swap.
//
// Like Stream, a BufStream must not be shared between goroutines, and the
// zero value is valid but degenerate; obtain one through NewBufStream.
// Copying a BufStream forks the sequence (both copies replay the same
// remaining draws); hand it around by pointer.
type BufStream struct {
	src Stream
	pos int // next unread buffer index; == rngBufLen when drained
	buf [rngBufLen]uint64
}

// NewBufStream returns a buffered drain of stream s, continuing exactly the
// sequence s would produce next.
func NewBufStream(s Stream) BufStream {
	return BufStream{src: s, pos: rngBufLen}
}

// refill runs one block-fill sweep. Split out of Uint64 so the common
// buffer-hit path stays within the inlining budget.
func (b *BufStream) refill() {
	b.src.Fill(b.buf[:])
	b.pos = 0
}

// Uint64 returns the next 64 raw bits.
func (b *BufStream) Uint64() uint64 {
	if b.pos == rngBufLen {
		b.refill()
	}
	v := b.buf[b.pos]
	b.pos++
	return v
}

// Uint32 returns the next 32 raw bits (the high half of a 64-bit draw).
func (b *BufStream) Uint32() uint32 { return uint32(b.Uint64() >> 32) }

// Fill overwrites dst with the next len(dst) draws — the remaining buffered
// draws first, then a direct sweep of the source stream — byte-identical to
// len(dst) successive Uint64 calls. Bulk consumers (the count sampler's
// block loop) use this to take whole blocks of draws in one call.
func (b *BufStream) Fill(dst []uint64) {
	n := copy(dst, b.buf[b.pos:])
	b.pos += n
	b.src.Fill(dst[n:])
}

// Snapshot returns the logical SplitMix64 state at the current consumption
// point: the state a fresh Stream would need to continue this BufStream's
// sequence exactly. The buffer is an execution strategy, not part of the
// stream contract — buffered-but-unconsumed draws are un-advanced by
// rewinding the source state one goldenGamma per draw (the SplitMix64 state
// is a pure counter, so the rewind is exact). Together with ResumeBufStream
// this is the checkpointing surface of the counts backend: one uint64
// captures the whole RNG position.
func (b *BufStream) Snapshot() uint64 {
	return b.src.state - uint64(rngBufLen-b.pos)*goldenGamma
}

// ResumeBufStream reconstructs a buffered drain from a Snapshot value. The
// resumed stream's draw sequence is byte-identical to what the snapshotted
// stream would have produced next (the stream-identity tests pin this).
func ResumeBufStream(state uint64) BufStream {
	return NewBufStream(Stream{state: state})
}

// Intn returns a uniform int in [0, n); it panics for n ≤ 0. Identical
// algorithm and draw consumption to Stream.Intn (Lemire multiply-shift with
// rejection), sourced from the buffer.
func (b *BufStream) Intn(n int) int {
	if n <= 0 {
		panic("sched: BufStream.Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(b.Uint64(), un)
	if lo < un {
		// Rejection zone: discard the draws mapping unevenly.
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(b.Uint64(), un)
		}
	}
	return int(hi)
}
