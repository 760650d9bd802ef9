package erasure_test

import (
	"bytes"
	"fmt"
	"testing"

	"dcode/internal/core"
	"dcode/internal/erasure"
	"dcode/internal/hdp"
	"dcode/internal/rdp"
	"dcode/internal/stripe"
)

// The engine's encode, verify and decode all run on one group-fold helper
// over the vectorized kernel. This file checks them against a reference that
// shares neither: parity equations evaluated cell by cell, byte by byte,
// straight from Groups().

// refParity returns the byte-wise XOR of a group's members as they stand in s.
func refParity(s *stripe.Stripe, g erasure.Group) []byte {
	out := make([]byte, s.ElemSize())
	for _, m := range g.Members {
		for i, b := range s.Elem(m.Row, m.Col) {
			out[i] ^= b
		}
	}
	return out
}

// refEncode fills in every parity cell. A group is evaluated once none of
// its members is a parity cell still waiting, which orders parity-on-parity
// codes (RDP's diagonal over the row parity, HDP) without the engine's
// dependency sort.
func refEncode(c *erasure.Code, s *stripe.Stripe) {
	groups := c.Groups()
	done := make([]bool, len(groups))
	for left := len(groups); left > 0; {
		progressed := false
		for gi, g := range groups {
			if done[gi] {
				continue
			}
			ready := true
			for _, m := range g.Members {
				if pg := c.ParityGroup(m.Row, m.Col); pg >= 0 && !done[pg] {
					ready = false
				}
			}
			if ready {
				copy(s.Elem(g.Parity.Row, g.Parity.Col), refParity(s, g))
				done[gi] = true
				left--
				progressed = true
			}
		}
		if !progressed {
			panic("refEncode: parity dependency cycle")
		}
	}
}

// refVerify reports whether every parity equation holds, byte-wise.
func refVerify(c *erasure.Code, s *stripe.Stripe) bool {
	for _, g := range c.Groups() {
		want := refParity(s, g)
		for i, b := range s.Elem(g.Parity.Row, g.Parity.Col) {
			if b != want[i] {
				return false
			}
		}
	}
	return true
}

func TestEngineMatchesByteWiseReference(t *testing.T) {
	ctors := []struct {
		name string
		new  func(int) (*erasure.Code, error)
	}{{"dcode", core.New}, {"rdp", rdp.New}, {"hdp", hdp.New}}
	for _, ct := range ctors {
		for _, p := range []int{5, 7} {
			for _, elemSize := range []int{8, 24, 4096} {
				t.Run(fmt.Sprintf("%s/p=%d/elem=%d", ct.name, p, elemSize), func(t *testing.T) {
					c, err := ct.new(p)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, c, elemSize)
				})
			}
		}
	}
}

func checkAgainstReference(t *testing.T, c *erasure.Code, elemSize int) {
	want := c.NewStripe(elemSize)
	want.Fill(uint64(31*c.P() + elemSize))
	refEncode(c, want)

	// Encode: same data, parity cells start as garbage.
	got := want.Clone()
	for _, g := range c.Groups() {
		for i := range got.Elem(g.Parity.Row, g.Parity.Col) {
			got.Elem(g.Parity.Row, g.Parity.Col)[i] ^= 0x5A
		}
	}
	c.Encode(got)
	if !got.Equal(want) {
		t.Fatal("Encode disagrees with the byte-wise reference")
	}

	// EncodeFrom: the data arrives through external views; the stripe's own
	// data cells hold garbage and must not be read.
	from := c.NewStripe(elemSize)
	from.Fill(77)
	data := make([][]byte, c.DataElems())
	for i := range data {
		co := c.DataCoord(i)
		data[i] = append([]byte(nil), want.Elem(co.Row, co.Col)...)
	}
	c.EncodeFrom(from, data)
	for _, g := range c.Groups() {
		p := g.Parity
		if !bytes.Equal(from.Elem(p.Row, p.Col), want.Elem(p.Row, p.Col)) {
			t.Fatalf("EncodeFrom parity %v disagrees with the byte-wise reference", p)
		}
	}

	// Verify: true on the reference stripe, and in step with the reference
	// when any one cell has its last byte flipped.
	if !c.Verify(want) || !refVerify(c, want) {
		t.Fatal("Verify rejects the reference-encoded stripe")
	}
	for r := 0; r < c.Rows(); r++ {
		for col := 0; col < c.Cols(); col++ {
			bad := want.Clone()
			bad.Elem(r, col)[elemSize-1] ^= 1
			if g, w := c.Verify(bad), refVerify(c, bad); g != w {
				t.Fatalf("Verify = %v with cell (%d,%d) corrupted, reference says %v", g, r, col, w)
			}
		}
	}

	// Reconstruct: every single column and every pair, lost cells overwritten
	// with garbage first.
	lose := func(cols ...int) {
		s := want.Clone()
		for _, f := range cols {
			for r := 0; r < c.Rows(); r++ {
				for i := range s.Elem(r, f) {
					s.Elem(r, f)[i] = byte(0xC3 ^ r ^ i)
				}
			}
		}
		if err := c.Reconstruct(s, cols...); err != nil {
			t.Fatalf("Reconstruct%v: %v", cols, err)
		}
		if !s.Equal(want) {
			t.Fatalf("Reconstruct%v disagrees with the byte-wise reference", cols)
		}
	}
	for f1 := 0; f1 < c.Cols(); f1++ {
		lose(f1)
		for f2 := f1 + 1; f2 < c.Cols(); f2++ {
			lose(f1, f2)
		}
	}
}
