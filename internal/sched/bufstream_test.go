package sched

import "testing"

// TestFillMatchesUint64 pins the block-fill contract: Fill(dst) is
// byte-identical to len(dst) successive Uint64 calls, for lengths around and
// across the sweep width, and leaves the stream positioned identically.
func TestFillMatchesUint64(t *testing.T) {
	for _, n := range []int{0, 1, 7, rngBufLen - 1, rngBufLen, rngBufLen + 9} {
		a, b := SplitStream(5, 3), SplitStream(5, 3)
		dst := make([]uint64, n)
		a.Fill(dst)
		for i, v := range dst {
			if want := b.Uint64(); v != want {
				t.Fatalf("Fill len %d: draw %d = %#x, want %#x", n, i, v, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Fill len %d: streams diverged after the sweep", n)
		}
	}
}

// TestBufStreamIdentity is the buffered-RNG stream-identity test: a
// BufStream must replay its Stream byte for byte across every derivation the
// parallel subsystem uses (NewStream, and SplitStream worker/count indices),
// through multiple refill sweeps.
func TestBufStreamIdentity(t *testing.T) {
	for _, seed := range []int64{0, 1, -9, 1 << 40} {
		for _, idx := range []int{0, 1, 7, CountStreamIndex} {
			raw := SplitStream(seed, idx)
			buf := NewBufStream(SplitStream(seed, idx))
			for i := 0; i < 3*rngBufLen+17; i++ {
				if got, want := buf.Uint64(), raw.Uint64(); got != want {
					t.Fatalf("seed %d stream %d: draw %d = %#x, want %#x", seed, idx, i, got, want)
				}
			}
		}
	}
}

// TestBufStreamIntnIdentity: Intn must consume the same underlying draws and
// return the same values as Stream.Intn, including across interleaved
// Uint64/Uint32/Intn calls (the consumption patterns of the count sampler
// and the hybrid workers).
func TestBufStreamIntnIdentity(t *testing.T) {
	raw := SplitStream(11, 2)
	buf := NewBufStream(SplitStream(11, 2))
	for i := 0; i < 2000; i++ {
		switch i % 4 {
		case 0:
			if got, want := buf.Intn(10), raw.Intn(10); got != want {
				t.Fatalf("step %d: Intn(10) = %d, want %d", i, got, want)
			}
		case 1:
			if got, want := buf.Uint64(), raw.Uint64(); got != want {
				t.Fatalf("step %d: Uint64 diverged", i)
			}
		case 2:
			// An Intn width near 2⁶³ exercises the rejection path too.
			if got, want := buf.Intn(1<<62+3), raw.Intn(1<<62+3); got != want {
				t.Fatalf("step %d: wide Intn = %d, want %d", i, got, want)
			}
		case 3:
			if got, want := buf.Uint32(), raw.Uint32(); got != want {
				t.Fatalf("step %d: Uint32 diverged", i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BufStream.Intn(0) did not panic")
		}
	}()
	buf.Intn(0)
}

// TestBufStreamFillIdentity: BufStream.Fill must continue the exact draw
// sequence across mixed consumption — single draws, then a bulk fill that
// straddles the buffered remainder and the direct source sweep, then single
// draws again (the count sampler's consumption pattern).
func TestBufStreamFillIdentity(t *testing.T) {
	raw := SplitStream(7, CountStreamIndex)
	buf := NewBufStream(SplitStream(7, CountStreamIndex))
	for _, step := range []int{3, rngBufLen + 10, 1, 500, rngBufLen, 0, 2} {
		dst := make([]uint64, step)
		buf.Fill(dst)
		for i, v := range dst {
			if want := raw.Uint64(); v != want {
				t.Fatalf("fill of %d: draw %d = %#x, want %#x", step, i, v, want)
			}
		}
		if got, want := buf.Uint64(), raw.Uint64(); got != want {
			t.Fatalf("fill of %d: next single draw diverged", step)
		}
	}
}

// BenchmarkStreamDraw compares the raw and buffered drains — the refill
// sweep must amortize below the unbuffered per-draw cost.
func BenchmarkStreamDraw(b *testing.B) {
	b.Run("raw", func(b *testing.B) {
		s := NewStream(1)
		var acc uint64
		for i := 0; i < b.N; i++ {
			acc ^= s.Uint64()
		}
		sink = acc
	})
	b.Run("buffered", func(b *testing.B) {
		s := NewBufStream(NewStream(1))
		var acc uint64
		for i := 0; i < b.N; i++ {
			acc ^= s.Uint64()
		}
		sink = acc
	})
}

var sink uint64
