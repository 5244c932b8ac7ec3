package sched

import (
	"math"
	"testing"
)

// TestStreamDerivation pins the documented stream-derivation scheme: stream i
// of seed s starts from mix64(uint64(s) + (i+1)·goldenGamma). Hybrid runs
// are reproducible per (seed, P) only because this mapping never changes.
func TestStreamDerivation(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for i := 0; i < 5; i++ {
			got := SplitStream(seed, i)
			want := Stream{state: mix64(uint64(seed) + (uint64(i)+1)*goldenGamma)}
			if got != want {
				t.Fatalf("SplitStream(%d, %d) state = %#x, want %#x", seed, i, got.state, want.state)
			}
		}
		if NewStream(seed) != SplitStream(seed, 0) {
			t.Fatalf("NewStream(%d) != SplitStream(%d, 0)", seed, seed)
		}
	}
}

// TestStreamDeterminismAndIndependence: the same (seed, index) replays the
// same sequence; distinct indices of one seed produce distinct sequences.
func TestStreamDeterminismAndIndependence(t *testing.T) {
	a, b := SplitStream(3, 1), SplitStream(3, 1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same stream diverged")
		}
	}
	c, d := SplitStream(3, 1), SplitStream(3, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 1 and 2 of the same seed collided %d/100 times", same)
	}
}

// TestStreamIntnRange checks Intn stays in range for small and awkward n,
// including the 2⁶³-boundary cases.
func TestStreamIntnRange(t *testing.T) {
	s := NewStream(11)
	for _, n := range []int{1, 2, 3, 7, 1 << 20, math.MaxInt64 - 1} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

// TestStreamIntnUniform is a coarse chi-squared check on Intn(10): 10 bins,
// 9 degrees of freedom; the statistic should stay below the generous 1‰
// cut-off of 27.9 for a healthy generator (deterministic seed, no flake).
func TestStreamIntnUniform(t *testing.T) {
	s := NewStream(42)
	const n, draws = 10, 100_000
	var bins [n]int
	for i := 0; i < draws; i++ {
		bins[s.Intn(n)]++
	}
	exp := float64(draws) / n
	chi2 := 0.0
	for _, c := range bins {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	if chi2 > 27.9 {
		t.Fatalf("chi² = %.1f over %d bins (want < 27.9); bins %v", chi2, n, bins)
	}
}
