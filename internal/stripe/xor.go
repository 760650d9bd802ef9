package stripe

import "crypto/subtle"

// Every XOR in the repository lands on subtle.XORBytes, the standard
// library's vectorized region XOR (assembly on amd64 and arm64, a word-wide
// generic loop elsewhere or under the purego tag). The wrappers below add the
// two things it does not give: XORBytes silently truncates to its shorter
// operand, where a length mismatch here is always a caller bug and panics;
// and it knows nothing about the accumulate-many-sources shapes parity code
// needs. Operands may overlap dst exactly or not at all — XORBytes panics on
// an inexact overlap.

// XOR computes dst ^= src element-wise. The slices must have equal length.
func XOR(dst, src []byte) {
	if len(dst) != len(src) {
		panic("stripe: XOR length mismatch")
	}
	subtle.XORBytes(dst, dst, src)
}

// XORInto computes dst = a ^ b element-wise. The slices must have equal
// length; dst may alias a or b exactly.
func XORInto(dst, a, b []byte) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic("stripe: XORInto length mismatch")
	}
	subtle.XORBytes(dst, a, b)
}

// XORMulti folds every source into dst: dst ^= srcs[0] ^ srcs[1] ^ ... .
// All sources must have dst's length; none may alias dst (sources may alias
// each other).
func XORMulti(dst []byte, srcs ...[]byte) {
	checkSources("XORMulti", dst, srcs)
	for _, s := range srcs {
		subtle.XORBytes(dst, dst, s)
	}
}

// XORSet overwrites dst with the XOR of the sources: dst = srcs[0] ^
// srcs[1] ^ ... . The first pass is three-operand, so dst's prior contents
// are never read and the caller does not seed it with a copy; one source
// degenerates to that copy and none to the empty XOR, all zeros. All sources
// must have dst's length; none may alias dst.
func XORSet(dst []byte, srcs ...[]byte) {
	checkSources("XORSet", dst, srcs)
	switch len(srcs) {
	case 0:
		clear(dst)
	case 1:
		copy(dst, srcs[0])
	default:
		subtle.XORBytes(dst, srcs[0], srcs[1])
		for _, s := range srcs[2:] {
			subtle.XORBytes(dst, dst, s)
		}
	}
}

// coldSlice is how many bytes of each source XORSetCold folds before it
// moves on to the next source.
const coldSlice = 512

// XORSetCold is XORSet for sources that are not in cache: cells a fold
// reads straight from a device's medium (stripe.Borrow). XORSet walks one
// source at a time, so each source's cache misses start only after the last
// one's are served; XORSetCold walks them together, coldSlice bytes of each
// in turn, so their misses overlap. On 4 KiB sources read from memory it
// is about 1.3× faster than XORSet; on sources in cache it is about 1.7×
// slower, which is why it is a form of its own.
func XORSetCold(dst []byte, srcs ...[]byte) {
	if len(srcs) < 2 || len(dst) <= coldSlice {
		XORSet(dst, srcs...)
		return
	}
	checkSources("XORSetCold", dst, srcs)
	for lo := 0; lo < len(dst); lo += coldSlice {
		hi := min(lo+coldSlice, len(dst))
		d := dst[lo:hi]
		subtle.XORBytes(d, srcs[0][lo:hi], srcs[1][lo:hi])
		for _, s := range srcs[2:] {
			subtle.XORBytes(d, d, s[lo:hi])
		}
	}
}

// checkSources panics unless every source has dst's length and none starts
// where dst does. An exactly aliased source would make a later pass fold dst
// into itself and silently drop everything accumulated so far; XORBytes
// already panics on the inexact overlaps.
func checkSources(fn string, dst []byte, srcs [][]byte) {
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic("stripe: " + fn + " length mismatch")
		}
		if len(s) > 0 && &s[0] == &dst[0] {
			panic("stripe: " + fn + " source aliases dst")
		}
	}
}
