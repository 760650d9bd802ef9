package erasure

import (
	"strings"
	"testing"
	"testing/quick"
)

// xorPair is a 2×4 code with two parity columns protecting two data columns:
// RAID-4 row parities in column 2 plus two overlapping sums in column 3.
// The four equation vectors over (x00,x01,x10,x11) are {1100, 0011, 1110,
// 0111}, which have full rank, so every column pair is recoverable (the
// data+data pair needs the Gaussian fallback; the others peel).
func xorPair(t *testing.T) *Code {
	t.Helper()
	groups := []Group{
		{Parity: Coord{0, 2}, Members: []Coord{{0, 0}, {0, 1}}},
		{Parity: Coord{1, 2}, Members: []Coord{{1, 0}, {1, 1}}},
		{Parity: Coord{0, 3}, Members: []Coord{{0, 0}, {0, 1}, {1, 0}}},
		{Parity: Coord{1, 3}, Members: []Coord{{0, 1}, {1, 0}, {1, 1}}},
	}
	c, err := New("xorpair", 2, 2, 4, groups)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEncodeVerifyRoundTrip(t *testing.T) {
	c := xorPair(t)
	s := c.NewStripe(16)
	s.Fill(11)
	c.Encode(s)
	if !c.Verify(s) {
		t.Fatal("fresh encode fails Verify")
	}
	s.Elem(0, 0)[0] ^= 1
	if c.Verify(s) {
		t.Fatal("Verify missed a corrupted data element")
	}
}

func TestReconstructNoFailures(t *testing.T) {
	c := xorPair(t)
	s := c.NewStripe(8)
	s.Fill(1)
	c.Encode(s)
	want := s.Clone()
	if err := c.Reconstruct(s); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(want) {
		t.Fatal("Reconstruct with no failures modified the stripe")
	}
}

func TestReconstructRejectsBadColumns(t *testing.T) {
	c := xorPair(t)
	s := c.NewStripe(8)
	if err := c.Reconstruct(s, -1); err == nil {
		t.Fatal("negative column accepted")
	}
	if err := c.Reconstruct(s, 4); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if err := c.Reconstruct(s, 1, 1); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestReconstructGeometryMismatchPanics(t *testing.T) {
	c := xorPair(t)
	other := New2x2(t).NewStripe(8)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched stripe did not panic")
		}
	}()
	_ = c.Reconstruct(other, 0)
}

// New2x2 builds a trivial 2×2 single-parity-column code for geometry tests.
func New2x2(t *testing.T) *Code {
	t.Helper()
	c, err := New("tiny", 2, 2, 2, []Group{
		{Parity: Coord{0, 1}, Members: []Coord{{0, 0}}},
		{Parity: Coord{1, 1}, Members: []Coord{{1, 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReconstructTooManyFailuresErrors(t *testing.T) {
	c := xorPair(t)
	s := c.NewStripe(8)
	s.Fill(5)
	c.Encode(s)
	err := c.Reconstruct(s, 0, 1, 2)
	if err == nil {
		t.Fatal("three-column erasure of a two-fault-tolerant code succeeded")
	}
	if !strings.Contains(err.Error(), "unsolvable") && !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// gaussOnly is a code peeling cannot decode for the (0,1) erasure: both
// equations cover both data columns, so no equation ever has one unknown.
// The pair is still solvable linearly:
//
//	P(0,2) = (0,0) ^ (0,1)
//	P(1,2) = (0,0) ^ (1,1) ^ (1,0) ... arranged so the 4 unknowns of a
//	two-column erasure need elimination.
func gaussOnly(t *testing.T) *Code {
	t.Helper()
	groups := []Group{
		{Parity: Coord{0, 2}, Members: []Coord{{0, 0}, {0, 1}}},
		{Parity: Coord{1, 2}, Members: []Coord{{1, 0}, {1, 1}}},
		{Parity: Coord{0, 3}, Members: []Coord{{0, 0}, {0, 1}, {1, 0}}},
		{Parity: Coord{1, 3}, Members: []Coord{{0, 1}, {1, 0}, {1, 1}}},
	}
	c, err := New("gauss", 2, 2, 4, groups)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGaussianFallback(t *testing.T) {
	c := gaussOnly(t)
	// Peeling alone must stall on (0,1)...
	if _, _, err := c.SymbolicDecode(0, 1); err == nil {
		t.Fatal("expected peeling to stall for the gaussian-only pattern")
	}
	// ...but Reconstruct must still succeed via elimination.
	s := c.NewStripe(8)
	s.Fill(77)
	c.Encode(s)
	want := s.Clone()
	for _, f := range []int{0, 1} {
		for r := 0; r < 2; r++ {
			e := s.Elem(r, f)
			for i := range e {
				e[i] = 0xEE
			}
		}
	}
	if err := c.Reconstruct(s, 0, 1); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(want) {
		t.Fatal("gaussian reconstruction produced wrong data")
	}
}

func TestVerifyMDSOnMini(t *testing.T) {
	// xorPair's four equation vectors have full rank, so every single and
	// double column erasure is solvable and VerifyMDS must pass.
	if err := VerifyMDS(xorPair(t), 8); err != nil {
		t.Fatalf("VerifyMDS(xorPair) = %v", err)
	}
	// A code that is NOT 2-fault tolerant must be reported.
	weak, err := New("weak", 2, 1, 3, []Group{
		{Parity: Coord{0, 2}, Members: []Coord{{0, 0}, {0, 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if VerifyMDS(weak, 8) == nil {
		t.Fatal("VerifyMDS passed a single-fault-tolerant code")
	}
}

func TestVerifyMDSDefaultElemSize(t *testing.T) {
	if err := VerifyMDS(xorPair(t), 0); err != nil {
		t.Fatalf("VerifyMDS with elemSize 0 (default) = %v", err)
	}
}

func TestSymbolicDecodeChain(t *testing.T) {
	c := xorPair(t)
	xors, chain, err := c.SymbolicDecode(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain length = %d, want 2", len(chain))
	}
	// Recovering one element from a 3-cell equation costs 1 XOR.
	if xors != 2 {
		t.Fatalf("xors = %d, want 2", xors)
	}
	if _, _, err := c.SymbolicDecode(-1); err == nil {
		t.Fatal("SymbolicDecode accepted a bad column")
	}
	if _, _, err := c.SymbolicDecode(2, 2); err == nil {
		t.Fatal("SymbolicDecode accepted a column listed twice")
	}
}

func TestUpdateData(t *testing.T) {
	c := xorPair(t)
	s := c.NewStripe(8)
	s.Fill(9)
	c.Encode(s)
	newVal := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	c.UpdateData(s, 0, 0, newVal)
	if !c.Verify(s) {
		t.Fatal("UpdateData left the stripe inconsistent")
	}
	got := s.Elem(0, 0)
	for i := range newVal {
		if got[i] != newVal[i] {
			t.Fatal("UpdateData did not store the new value")
		}
	}
}

func TestUpdateDataOnParityPanics(t *testing.T) {
	c := xorPair(t)
	s := c.NewStripe(8)
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateData on parity cell did not panic")
		}
	}()
	c.UpdateData(s, 0, 2, make([]byte, 8))
}

// Property: for a random stripe, encode → corrupt any ≤2 columns →
// reconstruct recovers the original exactly.
func TestReconstructQuick(t *testing.T) {
	c := xorPair(t)
	f := func(seed uint64, a, b uint8) bool {
		f1 := int(a) % c.Cols()
		f2 := int(b) % c.Cols()
		s := c.NewStripe(8)
		s.Fill(seed)
		c.Encode(s)
		want := s.Clone()
		failed := []int{f1}
		if f2 != f1 {
			failed = append(failed, f2)
		}
		for _, col := range failed {
			for r := 0; r < c.Rows(); r++ {
				e := s.Elem(r, col)
				for i := range e {
					e[i] = 0xBA
				}
			}
		}
		if err := c.Reconstruct(s, failed...); err != nil {
			return false
		}
		return s.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
