package par

import "unsafe"

// cacheLine is the coherence granularity the hybrid runner pads its
// per-worker hot storage to: 64 bytes on every platform this project
// targets (x86-64, arm64). Padding to a too-small line costs correctness of
// the isolation argument, padding to a too-large one only a few bytes, so a
// fixed conservative constant beats probing the host.
const cacheLine = 64

// alignedSlice returns a length-n slice whose backing array starts on a
// cache-line boundary and whose final line is owned by the allocation
// outright (trailing slack past the cap). Workers use it for every buffer
// they write on the hot path — slice counts, used-agent multisets, dense
// transition mirrors — so that no two workers' per-interaction writes can
// land in the same coherence line and ping-pong it between cores, no matter
// how the allocator packs neighboring objects.
func alignedSlice[T ~int64 | ~uint64](n int) []T {
	const perLine = cacheLine / 8
	buf := make([]T, n+2*perLine)
	off := 0
	if rem := uintptr(unsafe.Pointer(unsafe.SliceData(buf))) % cacheLine; rem != 0 {
		off = int(cacheLine-rem) / 8
	}
	return buf[off : off+n : off+n]
}
