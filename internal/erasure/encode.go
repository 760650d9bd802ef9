package erasure

import (
	"bytes"
	"fmt"

	"dcode/internal/stripe"
)

// NewStripe allocates a zeroed stripe with this code's geometry.
func (c *Code) NewStripe(elemSize int) *stripe.Stripe {
	return stripe.New(c.rows, c.cols, elemSize)
}

// checkStripe panics if s does not match the code's geometry; mixing a stripe
// across codes is a programming error, not a runtime condition.
func (c *Code) checkStripe(s *stripe.Stripe) {
	if s.Rows() != c.rows || s.Cols() != c.cols {
		panic(fmt.Sprintf("erasure: %s: stripe %d×%d does not match code %d×%d",
			c.name, s.Rows(), s.Cols(), c.rows, c.cols))
	}
}

// Encode computes every parity element of the stripe in dependency order,
// overwriting whatever the parity cells previously held.
func (c *Code) Encode(s *stripe.Stripe) {
	c.checkStripe(s)
	for _, gi := range c.encodeOrder {
		c.EncodeGroup(s, gi)
	}
}

// EncodeGroup recomputes the parity of a single group. Any parity members
// must already be up to date.
func (c *Code) EncodeGroup(s *stripe.Stripe, gi int) {
	c.encodeGroupInto(s, gi)
	ops := int64(len(c.groups[gi].Members) - 1)
	c.xor.addEncode(ops, ops*int64(s.ElemSize()))
}

// encodeGroupInto is EncodeGroup without the XOR tally, shared with the
// parallel encoder (which tallies once for the whole stripe).
func (c *Code) encodeGroupInto(s *stripe.Stripe, gi int) {
	p := c.groups[gi].Parity
	c.FoldGroup(s.Elem(p.Row, p.Col), s, nil, gi, p)
}

// FoldGroup overwrites dst with the XOR of every cell of group gi — members
// and parity — except target, and returns how many cells it folded (the
// element-XOR count decode tallies report). It is the one seed-and-fold loop
// of the repository: with target the group's parity it encodes the group,
// with target a lost cell it recovers that cell, and into a scratch buffer it
// yields the value Verify compares. Cells are read through the data overlay
// (see CellFrom; nil reads every cell from s), so a caller holding some data
// elements elsewhere — the user's buffer of a zero-copy write or degraded
// read — folds them from there. dst is usually target's own cell (in s or in
// the overlay); it must not be any other cell of the group. Sources are
// gathered into a stack array and handed to the set-form kernel, so no call
// allocates and no seed copy precedes the first XOR; a group wider than the
// array continues through the accumulate form.
func (c *Code) FoldGroup(dst []byte, s *stripe.Stripe, data [][]byte, gi int, target Coord) int {
	g := &c.groups[gi]
	var arr [16][]byte
	srcs := arr[:0]
	folded := 0
	for i := 0; i <= len(g.Members); i++ {
		if m := g.cell(i); m != target {
			srcs = append(srcs, c.CellFrom(s, data, m))
		}
		if len(srcs) == cap(srcs) || i == len(g.Members) {
			if folded == 0 {
				stripe.XORSet(dst, srcs...)
			} else {
				stripe.XORMulti(dst, srcs...)
			}
			folded += len(srcs)
			srcs = srcs[:0]
		}
	}
	return folded
}

// EncodeFrom computes every parity element like Encode, but reads each data
// element through data — indexed by DataIndex(r, col) — when that entry is
// non-nil, falling back to the stripe cell otherwise. Parity lands in s as
// usual. The raid layer's zero-copy full-stripe write passes views of the
// user's buffer here, so the data bytes are XOR-folded straight from where
// the caller handed them over and never transit stripe memory. XOR tallies
// are identical to Encode's: members-1 per group.
func (c *Code) EncodeFrom(s *stripe.Stripe, data [][]byte) {
	c.EncodeGroupsFrom(s, data, nil)
}

// EncodeGroupsFrom is EncodeFrom restricted to the groups sel marks (indexed
// like Groups; nil marks every group). The marked parities are recomputed in
// dependency order, so a marked group that covers another marked group's
// parity (RDP, HDP) folds its new value; every other cell of s is left as it
// is. The raid layer's write plan re-encodes the groups it does not patch
// this way. XOR tallies are members-1 per group encoded.
func (c *Code) EncodeGroupsFrom(s *stripe.Stripe, data [][]byte, sel []bool) {
	c.checkStripe(s)
	for _, gi := range c.encodeOrder {
		if sel != nil && !sel[gi] {
			continue
		}
		g := &c.groups[gi]
		c.FoldGroup(s.Elem(g.Parity.Row, g.Parity.Col), s, data, gi, g.Parity)
		ops := int64(len(g.Members) - 1)
		c.xor.addEncode(ops, ops*int64(s.ElemSize()))
	}
}

// CellFrom resolves one cell through a data overlay — data indexed by
// DataIndex(r, col), as EncodeFrom and FoldGroup take it: the overlay's view
// for a covered data cell, the stripe cell for parity cells (members of
// groups that cover other parities, as in RDP/HDP) and for data cells the
// overlay leaves nil. A nil overlay reads everything from s.
func (c *Code) CellFrom(s *stripe.Stripe, data [][]byte, m Coord) []byte {
	if di := c.dataIndex[m.Row][m.Col]; di >= 0 && di < len(data) && data[di] != nil {
		return data[di]
	}
	return s.Elem(m.Row, m.Col)
}

// codeScratch is the pooled per-call scratch of UpdateData, Verify and
// Reconstruct: an element buffer, and the decoder's unknown-cell lists.
type codeScratch struct {
	buf       []byte
	unknownAt []int
	unknowns  []Coord
	solved    []bool
}

// resize returns b with length n, reusing its array when it is large enough.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

func (c *Code) getScratch(elemSize int) *codeScratch {
	if v := c.scratch.Get(); v != nil {
		sc := v.(*codeScratch)
		if cap(sc.buf) < elemSize {
			sc.buf = make([]byte, elemSize)
		}
		sc.buf = sc.buf[:elemSize]
		return sc
	}
	return &codeScratch{buf: make([]byte, elemSize)}
}

// UpdateData applies a read-modify-write style small write: it stores
// newData into the data cell at (r, col) and patches every parity whose
// value depends on it with (old XOR new), without touching any other data
// element. The patch set is the flattened update closure, so parities that
// cover other parities (RDP, HDP) stay consistent too. For D-Code the set
// always has exactly two entries — the "optimal update complexity" of the
// paper's §III-D.
func (c *Code) UpdateData(s *stripe.Stripe, r, col int, newData []byte) {
	c.checkStripe(s)
	if c.dataIndex[r][col] < 0 {
		panic(fmt.Sprintf("erasure: %s: UpdateData on parity cell (%d,%d)", c.name, r, col))
	}
	old := s.Elem(r, col)
	sc := c.getScratch(len(old))
	delta := sc.buf
	stripe.XORInto(delta, old, newData)
	copy(old, newData)
	for _, gi := range c.updateOf[r][col] {
		p := c.groups[gi].Parity
		stripe.XOR(s.Elem(p.Row, p.Col), delta)
	}
	c.scratch.Put(sc)
	ops := int64(1 + len(c.updateOf[r][col])) // the delta plus one patch per parity
	c.xor.addEncode(ops, ops*int64(s.ElemSize()))
}

// Verify reports whether every parity equation holds on the stripe: each
// group's members are folded into scratch and compared with the parity cell.
func (c *Code) Verify(s *stripe.Stripe) bool {
	c.checkStripe(s)
	sc := c.getScratch(s.ElemSize())
	defer c.scratch.Put(sc)
	for gi := range c.groups {
		p := c.groups[gi].Parity
		c.FoldGroup(sc.buf, s, nil, gi, p)
		if !bytes.Equal(sc.buf, s.Elem(p.Row, p.Col)) {
			return false
		}
	}
	return true
}
