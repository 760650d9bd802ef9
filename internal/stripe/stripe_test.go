package stripe

import "testing"

func TestNewGeometry(t *testing.T) {
	s := New(4, 6, 16)
	if s.Rows() != 4 || s.Cols() != 6 || s.ElemSize() != 16 {
		t.Fatalf("geometry = %d×%d×%d, want 4×6×16", s.Rows(), s.Cols(), s.ElemSize())
	}
	if len(s.Bytes()) != 4*6*16 {
		t.Fatalf("buffer length = %d, want %d", len(s.Bytes()), 4*6*16)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", dims)
				}
			}()
			New(dims[0], dims[1], dims[2])
		}()
	}
}

func TestElemAliasesStorage(t *testing.T) {
	s := New(3, 3, 4)
	e := s.Elem(1, 2)
	e[0] = 0xAB
	if s.Elem(1, 2)[0] != 0xAB {
		t.Fatal("write through Elem slice not visible on re-read")
	}
	// Elements must not overlap.
	s.Elem(1, 1)[3] = 0xCD
	if s.Elem(1, 2)[0] != 0xAB {
		t.Fatal("neighbouring element write clobbered (1,2)")
	}
}

func TestElemDistinctOffsets(t *testing.T) {
	s := New(5, 7, 8)
	seen := make(map[int]bool)
	for r := 0; r < 5; r++ {
		for c := 0; c < 7; c++ {
			e := s.Elem(r, c)
			if len(e) != 8 {
				t.Fatalf("Elem(%d,%d) length %d", r, c, len(e))
			}
			// Column-major: the elements of one column are adjacent.
			off := (c*5 + r) * 8
			if &e[0] != &s.Bytes()[off] {
				t.Fatalf("Elem(%d,%d) at wrong offset", r, c)
			}
			if seen[off] {
				t.Fatalf("duplicate offset %d", off)
			}
			seen[off] = true
		}
	}
}

// TestColRangeAliasesColumn pins the zero-copy contract: ColRange(c, r, n) is
// the same memory as elements (r..r+n-1, c), contiguous and capped.
func TestColRangeAliasesColumn(t *testing.T) {
	s := New(5, 7, 8)
	s.Fill(21)
	for c := 0; c < 7; c++ {
		full := s.ColRange(c, 0, 5)
		if len(full) != 5*8 || cap(full) != 5*8 {
			t.Fatalf("ColRange(%d,0,5) len/cap = %d/%d, want 40/40", c, len(full), cap(full))
		}
		for r := 0; r < 5; r++ {
			e := s.Elem(r, c)
			if &e[0] != &full[r*8] {
				t.Fatalf("Elem(%d,%d) does not alias ColRange at offset %d", r, c, r*8)
			}
		}
		sub := s.ColRange(c, 2, 2)
		sub[0] ^= 0xFF
		if s.Elem(2, c)[0] != full[2*8] {
			t.Fatalf("write through ColRange(%d,2,2) not visible via Elem", c)
		}
	}
}

func TestColRangeBoundsPanics(t *testing.T) {
	s := New(3, 4, 2)
	for _, crn := range [][3]int{{-1, 0, 1}, {4, 0, 1}, {0, -1, 1}, {0, 0, 0}, {0, 2, 2}, {0, 0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ColRange(%d,%d,%d) did not panic", crn[0], crn[1], crn[2])
				}
			}()
			s.ColRange(crn[0], crn[1], crn[2])
		}()
	}
}

func TestElemBoundsPanics(t *testing.T) {
	s := New(2, 2, 1)
	for _, rc := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Elem(%d,%d) did not panic", rc[0], rc[1])
				}
			}()
			s.Elem(rc[0], rc[1])
		}()
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := New(2, 3, 4)
	s.Fill(1)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone differs from original")
	}
	c.Elem(0, 0)[0] ^= 0xFF
	if s.Equal(c) {
		t.Fatal("mutating clone affected original (or Equal is broken)")
	}
}

func TestEqualGeometryMismatch(t *testing.T) {
	if New(2, 3, 4).Equal(New(3, 2, 4)) {
		t.Fatal("stripes with different geometry reported equal")
	}
	if New(2, 3, 4).Equal(New(2, 3, 8)) {
		t.Fatal("stripes with different element size reported equal")
	}
}

func TestZeroColumn(t *testing.T) {
	s := New(4, 5, 8)
	s.Fill(42)
	s.ZeroColumn(2)
	for r := 0; r < 4; r++ {
		if !allZero(s.Elem(r, 2)) {
			t.Fatalf("element (%d,2) not zeroed", r)
		}
		if allZero(s.Elem(r, 1)) {
			t.Fatalf("element (%d,1) unexpectedly zero; Fill too weak or ZeroColumn overreach", r)
		}
	}
}

func TestZeroElemAndZero(t *testing.T) {
	s := New(2, 2, 4)
	s.Fill(7)
	s.ZeroElem(1, 1)
	if !allZero(s.Elem(1, 1)) {
		t.Fatal("ZeroElem left data behind")
	}
	s.Zero()
	if !allZero(s.Bytes()) {
		t.Fatal("Zero left data behind")
	}
}

func TestFillDeterministic(t *testing.T) {
	a, b := New(3, 3, 16), New(3, 3, 16)
	a.Fill(99)
	b.Fill(99)
	if !a.Equal(b) {
		t.Fatal("Fill with same seed produced different contents")
	}
	b.Fill(100)
	if a.Equal(b) {
		t.Fatal("Fill with different seeds produced identical contents")
	}
}

// Borrowed cells read through their view until Unborrow; the stripe's own
// memory is untouched, and a view of part of an element is refused.
func TestBorrow(t *testing.T) {
	s := New(4, 3, 8)
	s.Fill(1)
	own := s.Clone()
	view := make([]byte, 2*8)
	for i := range view {
		view[i] = byte(100 + i)
	}
	s.Borrow(1, 2, view)
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			want, borrowed := own.Elem(r, c), c == 1 && r >= 2
			if borrowed {
				want = view[(r-2)*8 : (r-1)*8]
			}
			if got := s.Elem(r, c); string(got) != string(want) || s.Borrowed(r, c) != borrowed {
				t.Fatalf("Elem(%d,%d) = %v, borrowed %v; want %v, %v", r, c, got, s.Borrowed(r, c), want, borrowed)
			}
		}
	}
	if !s.Equal(own) {
		t.Fatal("Borrow changed the stripe's own memory")
	}
	s.Unborrow()
	if s.Borrowed(2, 1) || string(s.Elem(3, 1)) != string(own.Elem(3, 1)) {
		t.Fatal("a cell still reads its view after Unborrow")
	}
	for name, bad := range map[string]func(){
		"part of an element": func() { s.Borrow(0, 0, make([]byte, 12)) },
		"past the last row":  func() { s.Borrow(0, 3, make([]byte, 16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Borrow of %s did not panic", name)
				}
			}()
			bad()
		}()
	}
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
