// Package erasure provides a generic engine for XOR-based array codes
// (RAID-6 MDS codes such as D-Code, X-Code, RDP, H-Code, HDP and EVENODD).
//
// Every code is described as a Spec: a rows×cols element matrix plus a list
// of parity groups, each computing one parity element as the XOR of a set of
// member elements. The engine derives everything else — encoding order,
// verification, erasure decoding (peeling with a GF(2) Gaussian-elimination
// fallback), I/O planning metadata and analytic complexity metrics — so that
// the per-code packages only state their published equations.
package erasure

import (
	"fmt"
	"sort"
	"sync"
)

// Coord identifies one element of a stripe by row and column.
type Coord struct {
	Row, Col int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// GroupKind labels the flavour of a parity group; the simulators use it to
// distinguish "horizontal-like" parities (covering logically continuous data)
// from diagonal ones when reporting, and the layout tool uses it for display.
type GroupKind string

// The kinds used by the codes in this repository.
const (
	KindHorizontal   GroupKind = "horizontal"
	KindDiagonal     GroupKind = "diagonal"
	KindAntiDiagonal GroupKind = "anti-diagonal"
	KindDeployment   GroupKind = "deployment"
)

// Group is one parity equation: Parity = XOR of Members.
// Members may include other parity elements (RDP's diagonal parity covers the
// row-parity column); the engine orders encoding accordingly.
type Group struct {
	Kind    GroupKind
	Parity  Coord
	Members []Coord
}

// cell returns the i-th cell of the group's equation: the members in order,
// then the parity at index len(Members).
func (g *Group) cell(i int) Coord {
	if i < len(g.Members) {
		return g.Members[i]
	}
	return g.Parity
}

// Code is a fully constructed XOR array code over a rows×cols stripe.
// Construct with New; the zero value is not usable.
type Code struct {
	name string
	p    int // the prime parameter of the construction
	rows int
	cols int

	groups      []Group
	parityIdx   map[Coord]int // parity coord -> group index
	memberOf    [][][]int     // [row][col] -> group indices the cell is a *direct* member of
	updateOf    [][][]int     // [row][col] -> groups whose parity value depends on the cell (flattened)
	dataCoords  []Coord       // row-major data cells
	dataIndex   [][]int       // [row][col] -> logical data index, -1 for parity
	encodeOrder []int         // group indices in dependency order

	// flatParity records that no group reads another group's parity cell, so
	// group encodes are mutually independent.
	flatParity bool

	// scratch pools the per-call delta/accumulator buffers of UpdateData and
	// Verify so steady-state small writes and scrubs don't allocate.
	scratch sync.Pool

	// xor tallies the element-XOR work this instance actually executed
	// (see xorstats.go); the observability layer compares it against the
	// analytic predictions of ComputeMetrics.
	xor XORCounters
}

// New validates a code description and derives the engine metadata.
//
// Validation enforces the structural invariants every code in this repository
// relies on: parity cells are distinct, all coordinates are in range, no
// group lists its own parity as a member, and the parity dependency graph is
// acyclic (so encoding order exists).
func New(name string, p, rows, cols int, groups []Group) (*Code, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("erasure: %s: invalid geometry %d×%d", name, rows, cols)
	}
	c := &Code{
		name:      name,
		p:         p,
		rows:      rows,
		cols:      cols,
		groups:    groups,
		parityIdx: make(map[Coord]int, len(groups)),
	}
	inRange := func(co Coord) bool {
		return co.Row >= 0 && co.Row < rows && co.Col >= 0 && co.Col < cols
	}
	for gi, g := range groups {
		if !inRange(g.Parity) {
			return nil, fmt.Errorf("erasure: %s: group %d parity %v out of range", name, gi, g.Parity)
		}
		if _, dup := c.parityIdx[g.Parity]; dup {
			return nil, fmt.Errorf("erasure: %s: duplicate parity cell %v", name, g.Parity)
		}
		if len(g.Members) == 0 {
			return nil, fmt.Errorf("erasure: %s: group %d has no members", name, gi)
		}
		seen := make(map[Coord]bool, len(g.Members))
		for _, m := range g.Members {
			if !inRange(m) {
				return nil, fmt.Errorf("erasure: %s: group %d member %v out of range", name, gi, m)
			}
			if m == g.Parity {
				return nil, fmt.Errorf("erasure: %s: group %d lists its own parity %v as member", name, gi, m)
			}
			if seen[m] {
				return nil, fmt.Errorf("erasure: %s: group %d duplicate member %v", name, gi, m)
			}
			seen[m] = true
		}
		c.parityIdx[g.Parity] = gi
	}

	c.flatParity = true
	for _, g := range groups {
		for _, m := range g.Members {
			if _, isParity := c.parityIdx[m]; isParity {
				c.flatParity = false
			}
		}
	}

	// memberOf, dataCoords, dataIndex.
	c.memberOf = make([][][]int, rows)
	c.dataIndex = make([][]int, rows)
	for r := 0; r < rows; r++ {
		c.memberOf[r] = make([][]int, cols)
		c.dataIndex[r] = make([]int, cols)
		for col := 0; col < cols; col++ {
			c.dataIndex[r][col] = -1
		}
	}
	for gi, g := range groups {
		for _, m := range g.Members {
			c.memberOf[m.Row][m.Col] = append(c.memberOf[m.Row][m.Col], gi)
		}
	}
	for r := 0; r < rows; r++ {
		for col := 0; col < cols; col++ {
			co := Coord{r, col}
			if _, isParity := c.parityIdx[co]; !isParity {
				c.dataIndex[r][col] = len(c.dataCoords)
				c.dataCoords = append(c.dataCoords, co)
			}
		}
	}

	order, err := c.computeEncodeOrder()
	if err != nil {
		return nil, err
	}
	c.encodeOrder = order
	c.computeUpdateClosure()
	return c, nil
}

// computeUpdateClosure flattens every parity equation down to its data-cell
// support (expanding parity members through the encode order, with XOR
// semantics: a data cell that cancels out an even number of times is not in
// the support) and records, per data cell, which parities actually change
// when that cell is written. For RDP this is how a data write reaches the
// diagonal parity *through* the row parity; for codes whose groups reference
// data only (D-Code, X-Code, H-Code) it coincides with direct membership.
func (c *Code) computeUpdateClosure() {
	words := (c.rows*c.cols + 63) / 64
	bitOf := func(co Coord) (int, uint64) {
		i := co.Row*c.cols + co.Col
		return i / 64, 1 << (i % 64)
	}
	supports := make([][]uint64, len(c.groups))
	for _, gi := range c.encodeOrder {
		s := make([]uint64, words)
		for _, m := range c.groups[gi].Members {
			if dep, isParity := c.parityIdx[m]; isParity {
				for w, v := range supports[dep] {
					s[w] ^= v
				}
			} else {
				w, b := bitOf(m)
				s[w] ^= b
			}
		}
		supports[gi] = s
	}
	c.updateOf = make([][][]int, c.rows)
	for r := 0; r < c.rows; r++ {
		c.updateOf[r] = make([][]int, c.cols)
	}
	for gi, s := range supports {
		for r := 0; r < c.rows; r++ {
			for col := 0; col < c.cols; col++ {
				w, b := bitOf(Coord{r, col})
				if s[w]&b != 0 {
					c.updateOf[r][col] = append(c.updateOf[r][col], gi)
				}
			}
		}
	}
}

// computeEncodeOrder topologically sorts the groups so that every group's
// parity members are computed before the group itself.
func (c *Code) computeEncodeOrder() ([]int, error) {
	order := make([]int, 0, len(c.groups))
	done := make([]bool, len(c.groups))
	for len(order) < len(c.groups) {
		progress := false
		for gi, g := range c.groups {
			if done[gi] {
				continue
			}
			ready := true
			for _, m := range g.Members {
				if dep, isParity := c.parityIdx[m]; isParity && !done[dep] {
					ready = false
					break
				}
			}
			if ready {
				done[gi] = true
				order = append(order, gi)
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("erasure: %s: cyclic parity dependencies", c.name)
		}
	}
	return order, nil
}

// Name returns the code's human-readable name (e.g. "D-Code").
func (c *Code) Name() string { return c.name }

// P returns the prime parameter the stripe was constructed with.
func (c *Code) P() int { return c.p }

// Rows returns the number of element rows per stripe.
func (c *Code) Rows() int { return c.rows }

// Cols returns the number of columns, i.e. disks.
func (c *Code) Cols() int { return c.cols }

// Groups returns the parity groups. The slice must not be modified.
func (c *Code) Groups() []Group { return c.groups }

// FlatParity reports whether every parity group reads data cells only —
// no parity-on-parity chains (true for D-Code, X-Code, H-Code; false for
// RDP and HDP). The raid write plan mixes patched and re-encoded groups only
// on flat codes.
func (c *Code) FlatParity() bool { return c.flatParity }

// DataElems returns the number of data elements per stripe.
func (c *Code) DataElems() int { return len(c.dataCoords) }

// IsParity reports whether the cell at (r, col) holds a parity element.
func (c *Code) IsParity(r, col int) bool {
	_, ok := c.parityIdx[Coord{r, col}]
	return ok
}

// ParityGroup returns the index of the group whose parity lives at (r, col),
// or -1 if the cell is a data element.
func (c *Code) ParityGroup(r, col int) int {
	if gi, ok := c.parityIdx[Coord{r, col}]; ok {
		return gi
	}
	return -1
}

// DataCoord maps a logical data index (0..DataElems-1, row-major over data
// cells) to its stripe coordinate.
func (c *Code) DataCoord(idx int) Coord { return c.dataCoords[idx] }

// DataIndex maps a stripe coordinate to its logical data index, or -1 for
// parity cells.
func (c *Code) DataIndex(r, col int) int { return c.dataIndex[r][col] }

// MemberOf returns the indices of the groups that include (r, col) as a
// *direct* member — the equations the stored cell value appears in, which is
// what decoding and degraded reads use. The slice must not be modified.
func (c *Code) MemberOf(r, col int) []int { return c.memberOf[r][col] }

// UpdateGroups returns the indices of the groups whose parity value changes
// when the data cell (r, col) is overwritten — direct membership plus
// parity-through-parity propagation (e.g. RDP's diagonal parity changes when
// a row parity it covers changes). This is the code's true update
// complexity. The slice must not be modified.
func (c *Code) UpdateGroups(r, col int) []int { return c.updateOf[r][col] }

// ColumnCells returns all coordinates of column col.
func (c *Code) ColumnCells(col int) []Coord {
	cells := make([]Coord, c.rows)
	for r := 0; r < c.rows; r++ {
		cells[r] = Coord{r, col}
	}
	return cells
}

// DataColumns returns the number of columns that contain at least one data
// element — the disks that contribute to normal reads.
func (c *Code) DataColumns() int {
	n := 0
	for col := 0; col < c.cols; col++ {
		for r := 0; r < c.rows; r++ {
			if c.dataIndex[r][col] >= 0 {
				n++
				break
			}
		}
	}
	return n
}

// GroupsTouchedBy returns the sorted set of group indices whose parity a
// partial-stripe write of the given data cells must update, including
// parity-through-parity propagation (see UpdateGroups).
func (c *Code) GroupsTouchedBy(cells []Coord) []int {
	set := make(map[int]bool)
	for _, co := range cells {
		for _, gi := range c.updateOf[co.Row][co.Col] {
			set[gi] = true
		}
	}
	out := make([]int, 0, len(set))
	for gi := range set {
		out = append(out, gi)
	}
	sort.Ints(out)
	return out
}
