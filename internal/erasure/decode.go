package erasure

import (
	"fmt"
	"slices"

	"dcode/internal/stripe"
)

// Reconstruct repairs the stripe in place after the listed columns failed.
// The prior contents of the failed columns are treated as garbage and never
// read. Any number of columns may be passed; reconstruction succeeds exactly
// when the erasure pattern is solvable, which for the MDS RAID-6 codes in
// this repository means up to two columns.
//
// The decoder first runs the peeling pass the papers describe (start from an
// equation with a single missing element, recover it, repeat — the recovery
// chains of D-Code Fig. 3), then falls back to GF(2) Gaussian elimination for
// patterns peeling alone cannot finish (e.g. EVENODD's S-coupled diagonals).
func (c *Code) Reconstruct(s *stripe.Stripe, failed ...int) error {
	c.checkStripe(s)
	if len(failed) == 0 {
		return nil
	}
	if err := c.CheckFailed(failed...); err != nil {
		return err
	}
	// Collect unknowns: every cell of every failed column. unknownAt maps a
	// cell (row*cols+col) to 1 + its index in unknowns, 0 for a surviving cell.
	// All three lists live in the code's pooled scratch, so a steady-state
	// decode does not allocate.
	sc := c.getScratch(s.ElemSize())
	defer c.scratch.Put(sc)
	unknownAt := resize(sc.unknownAt, c.rows*c.cols)
	clear(unknownAt)
	unknowns := sc.unknowns[:0]
	for _, f := range failed {
		for r := 0; r < c.rows; r++ {
			unknowns = append(unknowns, Coord{r, f})
			unknownAt[r*c.cols+f] = len(unknowns)
		}
	}
	solved := resize(sc.solved, len(unknowns))
	clear(solved)
	sc.unknownAt, sc.unknowns, sc.solved = unknownAt, unknowns, solved
	remaining := len(unknowns)

	// eqCells returns the full cell set of group gi (members plus parity).
	eqCells := func(gi int) []Coord {
		g := &c.groups[gi]
		cells := make([]Coord, 0, len(g.Members)+1)
		cells = append(cells, g.Members...)
		cells = append(cells, g.Parity)
		return cells
	}
	isUnknown := func(co Coord) (int, bool) {
		ui := unknownAt[co.Row*c.cols+co.Col] - 1
		if ui < 0 || solved[ui] {
			return 0, false
		}
		return ui, true
	}

	// Peeling pass. Each recovery XORs the size-1 known cells of its equation
	// together, which is size-2 element XOR operations — the count
	// SymbolicDecode predicts and the XOR counters report.
	var peelOps int64
	for remaining > 0 {
		progress := false
		for gi := range c.groups {
			g := &c.groups[gi]
			var target Coord
			targetUI, missing := -1, 0
			for i := 0; i <= len(g.Members) && missing <= 1; i++ {
				if ui, unk := isUnknown(g.cell(i)); unk {
					missing++
					target, targetUI = g.cell(i), ui
				}
			}
			if missing != 1 {
				continue
			}
			c.FoldGroup(s.Elem(target.Row, target.Col), s, nil, gi, target)
			peelOps += int64(len(g.Members) - 1)
			solved[targetUI] = true
			remaining--
			progress = true
		}
		if !progress {
			break
		}
	}
	c.xor.addDecode(peelOps, peelOps*int64(s.ElemSize()))
	if remaining == 0 {
		return nil
	}
	return c.gaussian(s, unknowns, solved, remaining, eqCells, isUnknown)
}

// gaussian solves the residual unknowns by Gauss-Jordan elimination over
// GF(2). Each equation's right-hand side is the XOR of its known cells; the
// boolean coefficient matrix is tiny (at most a few dozen unknowns), so rows
// are kept as word-packed bit vectors.
func (c *Code) gaussian(s *stripe.Stripe, unknowns []Coord, solved []bool, remaining int,
	eqCells func(int) []Coord, isUnknown func(Coord) (int, bool)) error {

	// Compact indices for the still-unsolved unknowns.
	compact := make([]int, len(unknowns)) // unknown index -> compact column, -1 if solved
	var order []int                       // compact column -> unknown index
	for ui := range unknowns {
		compact[ui] = -1
		if !solved[ui] {
			compact[ui] = len(order)
			order = append(order, ui)
		}
	}
	k := len(order)
	words := (k + 63) / 64
	elemSize := s.ElemSize()

	type row struct {
		mask []uint64
		rhs  []byte
	}
	var gaussOps int64
	defer func() { c.xor.addDecode(gaussOps, gaussOps*int64(elemSize)) }()
	var rows []row
	for gi := range c.groups {
		r := row{mask: make([]uint64, words), rhs: make([]byte, elemSize)}
		any := false
		for _, co := range eqCells(gi) {
			if ui, unk := isUnknown(co); unk {
				j := compact[ui]
				r.mask[j/64] ^= 1 << (j % 64)
				any = true
			} else {
				stripe.XOR(r.rhs, s.Elem(co.Row, co.Col))
				gaussOps++
			}
		}
		if any {
			rows = append(rows, r)
		}
	}

	bit := func(m []uint64, j int) bool { return m[j/64]>>(j%64)&1 == 1 }
	rank := 0
	pivotRow := make([]int, k)
	for j := 0; j < k; j++ {
		pivotRow[j] = -1
	}
	for j := 0; j < k && rank < len(rows); j++ {
		pr := -1
		for i := rank; i < len(rows); i++ {
			if bit(rows[i].mask, j) {
				pr = i
				break
			}
		}
		if pr < 0 {
			continue
		}
		rows[rank], rows[pr] = rows[pr], rows[rank]
		for i := range rows {
			if i != rank && bit(rows[i].mask, j) {
				for w := 0; w < words; w++ {
					rows[i].mask[w] ^= rows[rank].mask[w]
				}
				stripe.XOR(rows[i].rhs, rows[rank].rhs)
				gaussOps++
			}
		}
		pivotRow[j] = rank
		rank++
	}
	for j := 0; j < k; j++ {
		if pivotRow[j] < 0 {
			co := unknowns[order[j]]
			return fmt.Errorf("erasure: %s: erasure pattern unsolvable (element %v unrecoverable)", c.name, co)
		}
	}
	for j := 0; j < k; j++ {
		co := unknowns[order[j]]
		copy(s.Elem(co.Row, co.Col), rows[pivotRow[j]].rhs)
	}
	return nil
}

// CheckFailed reports an error unless every listed column exists and none is
// listed twice. Reconstruct and SymbolicDecode reject exactly these lists.
func (c *Code) CheckFailed(failed ...int) error {
	for i, f := range failed {
		if f < 0 || f >= c.cols {
			return fmt.Errorf("erasure: %s: failed column %d out of range [0,%d)", c.name, f, c.cols)
		}
		if slices.Contains(failed[:i], f) {
			return fmt.Errorf("erasure: %s: failed column %d listed twice", c.name, f)
		}
	}
	return nil
}

// SymbolicDecode runs the peeling decoder without data, returning the number
// of element XOR operations a full reconstruction of the failed columns
// performs and the order in which elements are recovered. It errors if
// peeling alone cannot finish (codes that need the Gaussian fallback).
// The paper's decoding-complexity figures (§III-D) come from this count.
func (c *Code) SymbolicDecode(failed ...int) (xors int, chain []Coord, err error) {
	if err := c.CheckFailed(failed...); err != nil {
		return 0, nil, err
	}
	unknown := make(map[Coord]bool)
	for _, f := range failed {
		for r := 0; r < c.rows; r++ {
			unknown[Coord{r, f}] = true
		}
	}
	remaining := len(unknown)
	for remaining > 0 {
		progress := false
		for gi := range c.groups {
			g := &c.groups[gi]
			var target Coord
			missing := 0
			size := len(g.Members) + 1
			for _, co := range append(append([]Coord{}, g.Members...), g.Parity) {
				if unknown[co] {
					missing++
					target = co
				}
			}
			if missing != 1 {
				continue
			}
			// Recovering one element from an equation of `size` cells XORs
			// the other size-1 cells together: size-2 XOR operations.
			xors += size - 2
			chain = append(chain, target)
			delete(unknown, target)
			remaining--
			progress = true
		}
		if !progress {
			return xors, chain, fmt.Errorf("erasure: %s: peeling stalled with %d unknowns", c.name, remaining)
		}
	}
	return xors, chain, nil
}
