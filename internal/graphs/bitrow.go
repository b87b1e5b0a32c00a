package graphs

import "math/bits"

// Unrolled word-at-a-time kernels over bitset rows. The multi-word hot
// paths of the library (closed-row unions and Bron-Kerbosch
// intersections) bottom out in one of two shapes: "how many bits do a and
// b share" and "OR b into a". The loops below are unrolled four words
// wide so the compiler emits straight-line AND/POPCNT chains with the
// bounds checks hoisted.

// AndCountWords returns the number of bits set in both a and b
// (popcount of the AND). Rows must have equal length.
func AndCountWords(a, b []uint64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	b = b[:n]
	total := 0
	i := 0
	for ; i+4 <= n; i += 4 {
		total += bits.OnesCount64(a[i]&b[i]) +
			bits.OnesCount64(a[i+1]&b[i+1]) +
			bits.OnesCount64(a[i+2]&b[i+2]) +
			bits.OnesCount64(a[i+3]&b[i+3])
	}
	for ; i < n; i++ {
		total += bits.OnesCount64(a[i] & b[i])
	}
	return total
}

// OrWords ORs src into dst. dst must be at least as long as src.
func OrWords(dst, src []uint64) {
	n := len(src)
	if n == 0 {
		return
	}
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] |= src[i]
		dst[i+1] |= src[i+1]
		dst[i+2] |= src[i+2]
		dst[i+3] |= src[i+3]
	}
	for ; i < n; i++ {
		dst[i] |= src[i]
	}
}
