// Package stripe provides element-addressed stripe buffers and the XOR
// kernels used by every array code in this repository.
//
// A stripe is a rows×cols matrix of fixed-size elements stored in one
// contiguous allocation; element (r, c) models the r-th block of the c-th
// disk within one stripe of a RAID-6 array.
//
// Storage is column-major: the elements of one column are adjacent in the
// backing buffer, in row order. That mirrors the on-disk layout — a stripe's
// rows are contiguous per device — so a coalesced run of same-column cells is
// one contiguous range of stripe memory (see ColRange) and device I/O can
// move bytes directly between the device and the stripe with no staging copy.
package stripe

import (
	"bytes"
	"fmt"
)

// Stripe is a rows×cols matrix of equally sized byte elements.
// The zero value is not usable; construct with New.
type Stripe struct {
	rows, cols int
	elemSize   int
	buf        []byte

	// Borrowed cells (Borrow): views[c*rows+r] is the bytes cell (r, c)
	// reads through, nil for a cell in buf; borrowed counts the non-nil
	// views, so Elem pays one branch when there are none.
	views    [][]byte
	borrowed int
}

// New allocates a zeroed stripe with the given geometry.
// It panics if any dimension is non-positive, mirroring make() semantics:
// geometry is fixed by the code construction, so a bad value is a programming
// error, not a runtime condition.
func New(rows, cols, elemSize int) *Stripe {
	if rows <= 0 || cols <= 0 || elemSize <= 0 {
		panic(fmt.Sprintf("stripe: invalid geometry %d×%d×%d", rows, cols, elemSize))
	}
	return &Stripe{
		rows:     rows,
		cols:     cols,
		elemSize: elemSize,
		buf:      make([]byte, rows*cols*elemSize),
	}
}

// Rows returns the number of rows.
func (s *Stripe) Rows() int { return s.rows }

// Cols returns the number of columns (disks).
func (s *Stripe) Cols() int { return s.cols }

// ElemSize returns the element size in bytes.
func (s *Stripe) ElemSize() int { return s.elemSize }

// Elem returns the element at (r, c) as a slice aliasing the stripe's
// storage; writes through the slice modify the stripe. A borrowed cell
// returns its view instead (see Borrow).
func (s *Stripe) Elem(r, c int) []byte {
	if r < 0 || r >= s.rows || c < 0 || c >= s.cols {
		panic(fmt.Sprintf("stripe: element (%d,%d) outside %d×%d", r, c, s.rows, s.cols))
	}
	if s.borrowed != 0 {
		if v := s.views[c*s.rows+r]; v != nil {
			return v
		}
	}
	off := (c*s.rows + r) * s.elemSize
	return s.buf[off : off+s.elemSize : off+s.elemSize]
}

// ColRange returns the n elements of column c starting at row r as one
// contiguous slice aliasing the stripe's storage — the column-major layout
// guarantees adjacency. It is the zero-copy hand-off point for coalesced
// device I/O: the raid layer reads and writes column runs through it without
// staging buffers. Writes through the slice modify the stripe.
func (s *Stripe) ColRange(c, r, n int) []byte {
	if c < 0 || c >= s.cols || r < 0 || n <= 0 || r+n > s.rows {
		panic(fmt.Sprintf("stripe: column range (col %d, rows [%d,%d)) outside %d×%d",
			c, r, r+n, s.rows, s.cols))
	}
	off := (c*s.rows + r) * s.elemSize
	end := off + n*s.elemSize
	return s.buf[off:end:end]
}

// Borrow makes the cells of column c from row r read through view, bytes
// the stripe does not own — a device medium lent for a fold — one element
// per cell, until Unborrow: Elem of a borrowed cell returns its slice of
// view, so a fold reads the cell where it lies. A borrowed cell is
// read-only; writing through its Elem writes the lender's bytes. ColRange,
// Bytes and the other whole-stripe methods still see the stripe's own
// memory.
func (s *Stripe) Borrow(c, r int, view []byte) {
	n := len(view) / s.elemSize
	if n*s.elemSize != len(view) {
		panic(fmt.Sprintf("stripe: borrowed view of %d bytes is not whole %d-byte elements", len(view), s.elemSize))
	}
	s.ColRange(c, r, n) // range check
	if s.views == nil {
		s.views = make([][]byte, s.rows*s.cols)
	}
	for k := 0; k < n; k++ {
		v := &s.views[c*s.rows+r+k]
		if *v == nil {
			s.borrowed++
		}
		*v = view[k*s.elemSize : (k+1)*s.elemSize : (k+1)*s.elemSize]
	}
}

// Borrowed reports whether cell (r, c) reads through a borrowed view.
func (s *Stripe) Borrowed(r, c int) bool {
	return s.borrowed != 0 && s.views[c*s.rows+r] != nil
}

// Borrowing reports whether any cell reads through a borrowed view.
func (s *Stripe) Borrowing() bool { return s.borrowed != 0 }

// Unborrow drops every borrowed view: each cell reads the stripe's own
// memory again, and the stripe keeps no reference to the lent bytes.
func (s *Stripe) Unborrow() {
	if s.borrowed != 0 {
		clear(s.views)
		s.borrowed = 0
	}
}

// Bytes returns the whole stripe storage, column-major.
func (s *Stripe) Bytes() []byte { return s.buf }

// Clone returns a deep copy of the stripe.
func (s *Stripe) Clone() *Stripe {
	c := New(s.rows, s.cols, s.elemSize)
	copy(c.buf, s.buf)
	return c
}

// Equal reports whether two stripes have identical geometry and contents.
func (s *Stripe) Equal(o *Stripe) bool {
	if s.rows != o.rows || s.cols != o.cols || s.elemSize != o.elemSize {
		return false
	}
	return bytes.Equal(s.buf, o.buf)
}

// Zero clears every element.
func (s *Stripe) Zero() {
	clear(s.buf)
}

// ZeroColumn clears every element of column c, simulating a failed disk.
func (s *Stripe) ZeroColumn(c int) {
	clear(s.ColRange(c, 0, s.rows))
}

// ZeroElem clears the element at (r, c).
func (s *Stripe) ZeroElem(r, c int) {
	clear(s.Elem(r, c))
}

// Fill populates the whole stripe with a cheap deterministic byte stream
// derived from seed. Intended for tests and benchmarks.
func (s *Stripe) Fill(seed uint64) {
	x := seed*2862933555777941757 + 3037000493
	for i := range s.buf {
		// xorshift64*; quality is irrelevant, determinism is the point.
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		s.buf[i] = byte(x * 2685821657736338717 >> 56)
	}
}
