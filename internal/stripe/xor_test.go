package stripe

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// The kernels are wrappers over the standard library's vectorized XORBytes,
// so the oracle here shares nothing with them: one byte at a time, no
// reslicing, no word loads.

// xorRef returns the byte-wise XOR of the sources, n bytes long.
func xorRef(n int, srcs ...[]byte) []byte {
	out := make([]byte, n)
	for _, s := range srcs {
		for i := 0; i < n; i++ {
			out[i] ^= s[i]
		}
	}
	return out
}

// xorLens covers every length through two 64-byte vector blocks and their
// tails, plus the engine's default element size.
func xorLens() []int {
	lens := make([]int, 0, 136)
	for n := 0; n <= 130; n++ {
		lens = append(lens, n)
	}
	// Around XORSetCold's slice, and a last slice that is not whole.
	return append(lens, coldSlice-1, coldSlice, coldSlice+1, 4096, 4096+100)
}

// xorCounts are the source counts the multi-source forms are pinned at:
// none, the degenerate copy, the first three-operand pass, and counts around
// the group widths of the shipped codes (p = 7 … 17).
var xorCounts = []int{0, 1, 2, 7, 8, 9, 17}

// randAt returns n random bytes starting off bytes into a fresh backing
// array, so the slice's address modulo the vector width is off (backing
// arrays of these sizes are 16-byte aligned).
func randAt(rng *rand.Rand, off, n int) []byte {
	b := make([]byte, off+n+16)
	rng.Read(b)
	return b[off : off+n : off+n]
}

// randSources returns count sources of length n; source k sits at offset
// (first+3k) mod 16 of its own backing array, so the offsets sweep 0…15 as
// first does.
func randSources(rng *rand.Rand, count, first, n int) [][]byte {
	srcs := make([][]byte, count)
	for k := range srcs {
		srcs[k] = randAt(rng, (first+3*k)%16, n)
	}
	return srcs
}

func TestXORMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range xorLens() {
		for do := 0; do < 16; do++ {
			for so := 0; so < 16; so++ {
				dst, src := randAt(rng, do, n), randAt(rng, so, n)
				want := xorRef(n, dst, src)
				XOR(dst, src)
				if !bytes.Equal(dst, want) {
					t.Fatalf("n=%d dst+%d src+%d: XOR diverges from the byte-wise oracle", n, do, so)
				}
			}
		}
	}
}

func TestXORIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range xorLens() {
		for do := 0; do < 16; do++ {
			for so := 0; so < 16; so++ {
				dst, a, b := randAt(rng, do, n), randAt(rng, so, n), randAt(rng, (so+5)%16, n)
				want := xorRef(n, a, b)
				XORInto(dst, a, b)
				if !bytes.Equal(dst, want) {
					t.Fatalf("n=%d dst+%d a+%d: XORInto diverges from the byte-wise oracle", n, do, so)
				}
			}
		}
	}
}

func TestXORSelfInverse(t *testing.T) {
	f := func(a, b []byte) bool {
		n := min(len(a), len(b))
		got := bytes.Clone(a[:n])
		XOR(got, b[:n])
		XOR(got, b[:n])
		return bytes.Equal(got, a[:n])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestXORIntoAliasing pins the one aliasing XORInto allows: dst exactly a,
// exactly b, and exactly both.
func TestXORIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range xorLens() {
		for off := 0; off < 16; off++ {
			a, b := randAt(rng, off, n), randAt(rng, (off+7)%16, n)
			want := xorRef(n, a, b)

			dst := bytes.Clone(a)
			XORInto(dst, dst, b)
			if !bytes.Equal(dst, want) {
				t.Fatalf("n=%d off=%d: XORInto with dst aliasing a is wrong", n, off)
			}
			dst = bytes.Clone(b)
			XORInto(dst, a, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("n=%d off=%d: XORInto with dst aliasing b is wrong", n, off)
			}
			dst = bytes.Clone(a)
			XORInto(dst, dst, dst)
			if !allZero(dst) {
				t.Fatalf("n=%d off=%d: XORInto of a slice with itself is not zero", n, off)
			}
		}
	}
}

// checkMulti runs XORMulti and XORSet over one source set and compares both
// with the oracle.
func checkMulti(t *testing.T, rng *rand.Rand, n, dstOff int, srcs [][]byte) {
	t.Helper()
	dst := randAt(rng, dstOff, n)
	want := xorRef(n, append([][]byte{dst}, srcs...)...)
	XORMulti(dst, srcs...)
	if !bytes.Equal(dst, want) {
		t.Fatalf("n=%d dst+%d srcs=%d: XORMulti diverges from the byte-wise oracle", n, dstOff, len(srcs))
	}
	dst = randAt(rng, dstOff, n)
	want = xorRef(n, srcs...)
	XORSet(dst, srcs...)
	if !bytes.Equal(dst, want) {
		t.Fatalf("n=%d dst+%d srcs=%d: XORSet diverges from the byte-wise oracle", n, dstOff, len(srcs))
	}
	dst = randAt(rng, dstOff, n)
	XORSetCold(dst, srcs...)
	if !bytes.Equal(dst, want) {
		t.Fatalf("n=%d dst+%d srcs=%d: XORSetCold diverges from the byte-wise oracle", n, dstOff, len(srcs))
	}
}

func TestXORMultiMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range xorLens() {
		for _, count := range xorCounts {
			for do := 0; do < 16; do++ {
				checkMulti(t, rng, n, do, randSources(rng, count, do+1, n))
			}
		}
	}
}

// TestXORMulti8WayMatchesOracle sweeps every source count of the wide parity
// groups (eight and up, p = 7 … 17) rather than the sampled counts above.
func TestXORMulti8WayMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 1000, 4103} {
		for count := 8; count <= 17; count++ {
			checkMulti(t, rng, n, count%16, randSources(rng, count, count, n))
		}
	}
}

// TestXORSetDegenerateCounts pins the two source counts with no XOR in them:
// none is the empty XOR — dst is zeroed, whatever it held — and one is a copy.
func TestXORSetDegenerateCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 17, 4096} {
		dst := randAt(rng, 3, n)
		XORSet(dst)
		if !allZero(dst) {
			t.Fatalf("n=%d: XORSet with no sources left dst non-zero", n)
		}
		src := randAt(rng, 5, n)
		XORSet(dst, src)
		if !bytes.Equal(dst, src) {
			t.Fatalf("n=%d: XORSet with one source is not a copy", n)
		}
	}
}

// TestXORMultiAliasedSources feeds sources that alias each other —
// overlapping windows of one backing buffer, including the same slice twice.
// Sources aliasing each other (not dst) are legal, and each stream must be
// read independently: the full set cancels pairwise, the odd subset does not.
func TestXORMultiAliasedSources(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range xorLens() {
		backing := randAt(rng, 0, n+8)
		w0, w1 := backing[0:n], backing[1:1+n]
		x, y := randAt(rng, 9, n), randAt(rng, 2, n)
		srcs := [][]byte{w0, w1, x, y, w0, w1, x, y}
		checkMulti(t, rng, n, 4, srcs)
		checkMulti(t, rng, n, 4, srcs[:5]) // an odd subset does not cancel
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestXORLengthMismatchPanics(t *testing.T) {
	mustPanic(t, "XOR with a longer source", func() { XOR(make([]byte, 3), make([]byte, 4)) })
	mustPanic(t, "XOR with a shorter source", func() { XOR(make([]byte, 4), make([]byte, 3)) })
}

func TestXORIntoLengthMismatchPanics(t *testing.T) {
	mustPanic(t, "XORInto with a long b", func() { XORInto(make([]byte, 3), make([]byte, 3), make([]byte, 4)) })
	mustPanic(t, "XORInto with a short a", func() { XORInto(make([]byte, 3), make([]byte, 2), make([]byte, 3)) })
	mustPanic(t, "XORInto with a short dst", func() { XORInto(make([]byte, 2), make([]byte, 3), make([]byte, 3)) })
}

// TestXORMultiLengthMismatchPanics checks every source position of both
// multi-source forms: the mismatch must be caught before any pass writes.
func TestXORMultiLengthMismatchPanics(t *testing.T) {
	for _, bad := range []int{7, 9} {
		for pos := 0; pos < 9; pos++ {
			srcs := make([][]byte, 9)
			for i := range srcs {
				srcs[i] = bytes.Repeat([]byte{0xFF}, 8)
			}
			srcs[pos] = make([]byte, bad)
			dst := make([]byte, 8)
			mustPanic(t, "XORMulti with a mismatched source", func() { XORMulti(dst, srcs...) })
			mustPanic(t, "XORSet with a mismatched source", func() { XORSet(dst, srcs...) })
			mustPanic(t, "XORSetCold with a mismatched source", func() { XORSetCold(dst, srcs...) })
			if !allZero(dst) {
				t.Fatalf("source %d of length %d: dst written before the length check", pos, bad)
			}
		}
	}
}

// TestXORMultiSourceAliasingDstPanics pins the other half of the contract:
// a source that is dst would fold the accumulator into itself.
func TestXORMultiSourceAliasingDstPanics(t *testing.T) {
	dst, other := make([]byte, 32), make([]byte, 32)
	mustPanic(t, "XORMulti with dst as a source", func() { XORMulti(dst, other, dst) })
	mustPanic(t, "XORSet with dst as a source", func() { XORSet(dst, other, other, dst) })
}

// FuzzXORKernels pins XORMulti and XORSet against the byte-wise oracle on
// arbitrary data, lengths and source counts.
func FuzzXORKernels(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(9))
	f.Add([]byte{1}, uint8(8))
	f.Add([]byte{}, uint8(12))
	f.Fuzz(func(t *testing.T, data []byte, srcCount uint8) {
		count := int(srcCount % 24)
		n := len(data) / (count + 1)
		dst := bytes.Clone(data[:n])
		srcs := make([][]byte, count)
		for k := range srcs {
			srcs[k] = bytes.Clone(data[(k+1)*n : (k+2)*n])
		}
		want := xorRef(n, append([][]byte{dst}, srcs...)...)
		XORMulti(dst, srcs...)
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d srcs=%d: XORMulti diverges from the byte-wise oracle", n, count)
		}
		want = xorRef(n, srcs...)
		XORSet(dst, srcs...)
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d srcs=%d: XORSet diverges from the byte-wise oracle", n, count)
		}
	})
}

// benchSinkB keeps the kernels' work observable to the compiler.
var benchSinkB byte

func benchSources(count, n int) [][]byte {
	backing := make([]byte, count*n)
	rand.New(rand.NewSource(3)).Read(backing)
	srcs := make([][]byte, count)
	for i := range srcs {
		srcs[i] = backing[i*n : (i+1)*n]
	}
	return srcs
}

func BenchmarkXOR4K(b *testing.B) {
	dst := make([]byte, 4096)
	src := benchSources(1, 4096)[0]
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XOR(dst, src)
	}
	benchSinkB = dst[0]
}

// BenchmarkXOROracle4K is the byte-at-a-time floor the kernel is measured
// against.
func BenchmarkXOROracle4K(b *testing.B) {
	dst := make([]byte, 4096)
	src := benchSources(1, 4096)[0]
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] ^= src[j]
		}
	}
	benchSinkB = dst[0]
}

func benchXORWide(b *testing.B, kernel func([]byte, ...[]byte), srcCount int) {
	const n = 4096
	dst := make([]byte, n)
	srcs := benchSources(srcCount, n)
	b.SetBytes(int64(srcCount * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(dst, srcs...)
	}
	benchSinkB = dst[0]
}

func BenchmarkXORMulti8Src4K(b *testing.B)  { benchXORWide(b, XORMulti, 8) }
func BenchmarkXORMulti12Src4K(b *testing.B) { benchXORWide(b, XORMulti, 12) }
func BenchmarkXORSet8Src4K(b *testing.B)    { benchXORWide(b, XORSet, 8) }
