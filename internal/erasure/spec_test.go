package erasure

import "testing"

// miniCode is a hand-checkable 3×3 code: column 2 data, parity at (0,0)
// covering row 0 data, etc. Layout:
//
//	P0 D  D     P0 = (0,1)^(0,2)
//	D  P1 D     P1 = (1,0)^(1,2)
//	D  D  P2    P2 = (2,0)^(2,1)
func miniCode(t *testing.T) *Code {
	t.Helper()
	groups := []Group{
		{Kind: KindHorizontal, Parity: Coord{0, 0}, Members: []Coord{{0, 1}, {0, 2}}},
		{Kind: KindHorizontal, Parity: Coord{1, 1}, Members: []Coord{{1, 0}, {1, 2}}},
		{Kind: KindHorizontal, Parity: Coord{2, 2}, Members: []Coord{{2, 0}, {2, 1}}},
	}
	c, err := New("mini", 3, 3, 3, groups)
	if err != nil {
		t.Fatalf("miniCode: %v", err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New("bad", 3, 0, 3, nil); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := New("bad", 3, 3, -1, nil); err == nil {
		t.Fatal("negative cols accepted")
	}
}

func TestNewRejectsParityOutOfRange(t *testing.T) {
	_, err := New("bad", 3, 2, 2, []Group{
		{Parity: Coord{2, 0}, Members: []Coord{{0, 0}}},
	})
	if err == nil {
		t.Fatal("out-of-range parity accepted")
	}
}

func TestNewRejectsDuplicateParity(t *testing.T) {
	_, err := New("bad", 3, 2, 2, []Group{
		{Parity: Coord{0, 0}, Members: []Coord{{1, 0}}},
		{Parity: Coord{0, 0}, Members: []Coord{{1, 1}}},
	})
	if err == nil {
		t.Fatal("duplicate parity cell accepted")
	}
}

func TestNewRejectsEmptyGroup(t *testing.T) {
	_, err := New("bad", 3, 2, 2, []Group{{Parity: Coord{0, 0}}})
	if err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestNewRejectsSelfMember(t *testing.T) {
	_, err := New("bad", 3, 2, 2, []Group{
		{Parity: Coord{0, 0}, Members: []Coord{{0, 0}}},
	})
	if err == nil {
		t.Fatal("self-member accepted")
	}
}

func TestNewRejectsDuplicateMember(t *testing.T) {
	_, err := New("bad", 3, 2, 2, []Group{
		{Parity: Coord{0, 0}, Members: []Coord{{1, 0}, {1, 0}}},
	})
	if err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestNewRejectsMemberOutOfRange(t *testing.T) {
	_, err := New("bad", 3, 2, 2, []Group{
		{Parity: Coord{0, 0}, Members: []Coord{{1, 2}}},
	})
	if err == nil {
		t.Fatal("out-of-range member accepted")
	}
}

func TestNewRejectsCyclicParityDependency(t *testing.T) {
	_, err := New("bad", 3, 2, 2, []Group{
		{Parity: Coord{0, 0}, Members: []Coord{{0, 1}}},
		{Parity: Coord{0, 1}, Members: []Coord{{0, 0}}},
	})
	if err == nil {
		t.Fatal("cyclic parity dependency accepted")
	}
}

func TestEncodeOrderRespectsDependencies(t *testing.T) {
	// q depends on parity (0,0); it must be encoded after it even though it
	// is listed first.
	groups := []Group{
		{Parity: Coord{0, 1}, Members: []Coord{{0, 0}, {1, 0}}},
		{Parity: Coord{0, 0}, Members: []Coord{{1, 0}, {1, 1}}},
	}
	c, err := New("dep", 3, 2, 2, groups)
	if err != nil {
		t.Fatal(err)
	}
	if got := []int{c.encodeOrder[0], c.encodeOrder[1]}; got[0] != 1 || got[1] != 0 {
		t.Fatalf("encode order = %v, want [1 0]", got)
	}
	// Behavioural check: encoding must satisfy Verify.
	s := c.NewStripe(8)
	s.Fill(3)
	c.Encode(s)
	if !c.Verify(s) {
		t.Fatal("dependency-ordered encode does not verify")
	}
}

func TestAccessors(t *testing.T) {
	c := miniCode(t)
	if c.Name() != "mini" || c.P() != 3 || c.Rows() != 3 || c.Cols() != 3 {
		t.Fatalf("basic accessors wrong: %s %d %d %d", c.Name(), c.P(), c.Rows(), c.Cols())
	}
	if c.DataElems() != 6 {
		t.Fatalf("DataElems = %d, want 6", c.DataElems())
	}
	if !c.IsParity(0, 0) || c.IsParity(0, 1) {
		t.Fatal("IsParity wrong")
	}
	if c.ParityGroup(1, 1) != 1 || c.ParityGroup(0, 1) != -1 {
		t.Fatal("ParityGroup wrong")
	}
	if len(c.Groups()) != 3 {
		t.Fatal("Groups wrong length")
	}
}

func TestDataIndexRoundTrip(t *testing.T) {
	c := miniCode(t)
	for i := 0; i < c.DataElems(); i++ {
		co := c.DataCoord(i)
		if c.DataIndex(co.Row, co.Col) != i {
			t.Fatalf("DataIndex(DataCoord(%d)) = %d", i, c.DataIndex(co.Row, co.Col))
		}
		if c.IsParity(co.Row, co.Col) {
			t.Fatalf("DataCoord(%d) = %v is a parity cell", i, co)
		}
	}
	// Row-major ordering of data cells.
	if c.DataCoord(0) != (Coord{0, 1}) || c.DataCoord(1) != (Coord{0, 2}) || c.DataCoord(2) != (Coord{1, 0}) {
		t.Fatalf("data ordering not row-major: %v %v %v", c.DataCoord(0), c.DataCoord(1), c.DataCoord(2))
	}
	if c.DataIndex(0, 0) != -1 {
		t.Fatal("DataIndex of parity cell should be -1")
	}
}

func TestMemberOf(t *testing.T) {
	c := miniCode(t)
	if got := c.MemberOf(0, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("MemberOf(0,1) = %v, want [0]", got)
	}
	if got := c.MemberOf(0, 0); len(got) != 0 {
		t.Fatalf("MemberOf(parity) = %v, want empty", got)
	}
}

func TestGroupsTouchedBy(t *testing.T) {
	c := miniCode(t)
	got := c.GroupsTouchedBy([]Coord{{0, 1}, {0, 2}, {1, 0}})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("GroupsTouchedBy = %v, want [0 1]", got)
	}
	if got := c.GroupsTouchedBy(nil); len(got) != 0 {
		t.Fatalf("GroupsTouchedBy(nil) = %v", got)
	}
}

func TestColumnCellsAndDataColumns(t *testing.T) {
	c := miniCode(t)
	cells := c.ColumnCells(1)
	if len(cells) != 3 || cells[0] != (Coord{0, 1}) || cells[2] != (Coord{2, 1}) {
		t.Fatalf("ColumnCells(1) = %v", cells)
	}
	if c.DataColumns() != 3 {
		t.Fatalf("DataColumns = %d, want 3", c.DataColumns())
	}
	// A code with a pure parity column.
	pure, err := New("pure", 3, 2, 2, []Group{
		{Parity: Coord{0, 1}, Members: []Coord{{0, 0}}},
		{Parity: Coord{1, 1}, Members: []Coord{{1, 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pure.DataColumns() != 1 {
		t.Fatalf("pure parity column counted as data: DataColumns = %d", pure.DataColumns())
	}
}

func TestIsPrime(t *testing.T) {
	primes := map[int]bool{
		2: true, 3: true, 5: true, 7: true, 11: true, 13: true, 17: true,
		19: true, 23: true, 29: true, 31: true, 37: true, 41: true, 43: true,
		47: true, 53: true, 59: true, 61: true,
	}
	for n := -3; n <= 61; n++ {
		if IsPrime(n) != primes[n] {
			t.Errorf("IsPrime(%d) = %v", n, IsPrime(n))
		}
	}
}

func TestMod(t *testing.T) {
	cases := []struct{ a, m, want int }{
		{5, 7, 5}, {7, 7, 0}, {-1, 7, 6}, {-8, 7, 6}, {-14, 7, 0}, {20, 7, 6},
	}
	for _, c := range cases {
		if got := Mod(c.a, c.m); got != c.want {
			t.Errorf("Mod(%d,%d) = %d, want %d", c.a, c.m, got, c.want)
		}
	}
}

func TestCoordString(t *testing.T) {
	if (Coord{2, 3}).String() != "(2,3)" {
		t.Fatalf("Coord.String = %q", (Coord{2, 3}).String())
	}
}

// TestFlatParityDetection pins the classifier the raid write plan relies on:
// codes whose groups read only data cells may mix patched and re-encoded
// groups; parity-on-parity chains may not.
func TestFlatParityDetection(t *testing.T) {
	if !xorPair(t).FlatParity() {
		t.Fatal("xorPair reads only data cells; want FlatParity")
	}
	dep, err := New("dep", 3, 2, 2, []Group{
		{Parity: Coord{0, 1}, Members: []Coord{{0, 0}, {1, 0}}},
		{Parity: Coord{1, 1}, Members: []Coord{{0, 1}, {0, 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep.FlatParity() {
		t.Fatal("dep reads parity (0,1); want !FlatParity")
	}
}
