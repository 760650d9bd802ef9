package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"dcode/internal/codes"
	"dcode/internal/erasure"
	"dcode/internal/readperf"
)

// oneCode builds the -code instance at the one prime -p names.
func oneCode(o *options) (*erasure.Code, error) {
	if len(o.primes) != 1 {
		return nil, usagef("-p wants one prime, got %s", o.primes.String())
	}
	entry, err := codes.ByID(o.code)
	if err != nil {
		return nil, usageError{err}
	}
	return entry.New(o.primes[0])
}

// span checks an S,L flag and returns its L data cells, from data element S
// of one stripe and wrapping at its end.
func span(name string, v ints, c *erasure.Code) ([]erasure.Coord, error) {
	if len(v) != 2 || v[0] < 0 || v[1] < 1 || v[1] > c.DataElems() {
		return nil, usagef("-%s wants S,L with S >= 0 and 1 <= L <= %d, got %q", name, c.DataElems(), v.String())
	}
	cells := make([]erasure.Coord, v[1])
	for i := range cells {
		cells[i] = c.DataCoord((v[0] + i) % c.DataElems())
	}
	return cells, nil
}

// writeLayout draws a stripe (Figs. 1 and 2): where each parity kind lives,
// the groups of one kind, or the footprint of a write or a read.
func writeLayout(b *bytes.Buffer, o *options) error {
	c, err := oneCode(o)
	if err != nil {
		return err
	}
	if o.degraded < -1 || o.degraded >= c.Cols() {
		return usagef("-degraded %d: %s has columns 0 to %d", o.degraded, c.Name(), c.Cols()-1)
	}
	if o.degraded >= 0 && o.read == nil {
		return usagef("-degraded needs -read")
	}
	fmt.Fprintf(b, "%s over %d disks (p=%d): %d×%d stripe, %d data + %d parity elements\n",
		c.Name(), c.Cols(), c.P(), c.Rows(), c.Cols(), c.DataElems(), len(c.Groups()))
	switch {
	case o.labels != "":
		err = drawLabels(b, c, erasure.GroupKind(o.labels))
	case o.write != nil:
		err = drawWrite(b, c, o.write)
	case o.read != nil:
		err = drawRead(b, c, o.read, o.degraded)
	default:
		drawKinds(b, c)
	}
	return err
}

// grid draws the stripe: each cell's mark, or blank where it has none.
func grid(b *bytes.Buffer, c *erasure.Code, marks map[erasure.Coord]string, blank string) {
	b.WriteString("      ")
	for col := 0; col < c.Cols(); col++ {
		fmt.Fprintf(b, "d%-3d", col)
	}
	b.WriteString("\n")
	for r := 0; r < c.Rows(); r++ {
		fmt.Fprintf(b, "r%-4d ", r)
		for col := 0; col < c.Cols(); col++ {
			m, ok := marks[erasure.Coord{Row: r, Col: col}]
			if !ok {
				m = blank
			}
			fmt.Fprintf(b, "%-4s", m)
		}
		b.WriteString("\n")
	}
}

// drawKinds shows where each parity kind lives (D = data).
func drawKinds(b *bytes.Buffer, c *erasure.Code) {
	short := map[erasure.GroupKind]string{
		erasure.KindHorizontal:   "H",
		erasure.KindDiagonal:     "G",
		erasure.KindAntiDiagonal: "A",
		erasure.KindDeployment:   "P",
	}
	marks := map[erasure.Coord]string{}
	for _, g := range c.Groups() {
		marks[g.Parity] = short[g.Kind]
	}
	b.WriteString("cell kinds (D data, H horizontal, G diagonal, A anti-diagonal, P deployment):\n")
	grid(b, c, marks, "D")
}

// drawLabels reproduces the paper's Fig. 2 style: each data cell carries the
// id of the first group of the requested kind it belongs to; parity cells
// carry their own group id in brackets.
func drawLabels(b *bytes.Buffer, c *erasure.Code, kind erasure.GroupKind) error {
	marks := map[erasure.Coord]string{}
	for _, g := range c.Groups() {
		marks[g.Parity] = "."
	}
	n := 0
	for _, g := range c.Groups() {
		if g.Kind != kind {
			continue
		}
		id := strconv.Itoa(n)
		if kind == erasure.KindDeployment || kind == erasure.KindAntiDiagonal {
			id = string(rune('A' + n%26))
		}
		n++
		marks[g.Parity] = "[" + id + "]"
		for _, m := range g.Members {
			if _, ok := marks[m]; !ok {
				marks[m] = id
			}
		}
	}
	if n == 0 {
		return usagef("%s has no %q groups", c.Name(), kind)
	}
	fmt.Fprintf(b, "%s groups (parity cells bracketed):\n", kind)
	grid(b, c, marks, "?")
	return nil
}

// drawWrite reproduces Fig. 1(b)/(d): stars are the written data elements,
// circles the parity elements that must be read and rewritten.
func drawWrite(b *bytes.Buffer, c *erasure.Code, sl ints) error {
	cells, err := span("write", sl, c)
	if err != nil {
		return err
	}
	marks := map[erasure.Coord]string{}
	for _, gi := range c.GroupsTouchedBy(cells) {
		marks[c.Groups()[gi].Parity] = "o"
	}
	parity := len(marks)
	for _, co := range cells {
		marks[co] = "*"
	}
	fmt.Fprintf(b, "partial stripe write of %d elements from data element %d (* written, o parity updated):\n", len(cells), sl[0])
	grid(b, c, marks, ".")
	fmt.Fprintf(b, "I/O cost: %d data accesses + %d parity accesses = %d\n",
		2*len(cells), 2*parity, 2*len(cells)+2*parity)
	return nil
}

// drawRead reproduces Fig. 1(a)/(c): stars are the requested elements,
// circles the extra elements a degraded read must fetch.
func drawRead(b *bytes.Buffer, c *erasure.Code, sl ints, failed int) error {
	cells, err := span("read", sl, c)
	if err != nil {
		return err
	}
	marks := map[erasure.Coord]string{}
	if failed < 0 {
		fmt.Fprintf(b, "normal read of %d elements from data element %d (*):\n", len(cells), sl[0])
	} else {
		fetch, extra, err := readperf.PlanStripeFetch(c, failed, cells)
		if err != nil {
			return err
		}
		for _, co := range fetch {
			marks[co] = "o"
		}
		for r := 0; r < c.Rows(); r++ {
			marks[erasure.Coord{Row: r, Col: failed}] = "X"
		}
		fmt.Fprintf(b, "degraded read of %d elements from data element %d with disk %d failed\n", len(cells), sl[0], failed)
		fmt.Fprintf(b, "(* requested, o extra recovery reads, X failed column) — %d extra elements:\n", extra)
	}
	for _, co := range cells {
		marks[co] = "*"
		if co.Col == failed {
			marks[co] = "*X"
		}
	}
	grid(b, c, marks, ".")
	return nil
}

// writeChain walks the peeling chain that rebuilds the failed columns
// (Fig. 3), then proves the reconstruction on a real stripe.
func writeChain(b *bytes.Buffer, o *options) error {
	c, err := oneCode(o)
	if err != nil {
		return err
	}
	cols := []int(o.fail)
	if err := c.CheckFailed(cols...); err != nil {
		return usageError{err}
	}
	xors, chain, err := c.SymbolicDecode(cols...)
	if err != nil {
		fmt.Fprintf(b, "peeling alone stalls (%v); Reconstruct would use the Gaussian fallback\n", err)
	} else {
		fmt.Fprintf(b, "%s p=%d, failed disks %v — recovery chain (%d elements, %d XORs, %.1f per element):\n",
			c.Name(), o.primes[0], cols, len(chain), xors, float64(xors)/float64(len(chain)))
		steps := make([]string, len(chain))
		for i, co := range chain {
			steps[i] = fmt.Sprintf("E%v", co)
		}
		fmt.Fprintln(b, strings.Join(steps, " -> "))
	}

	const elem = 64
	s := c.NewStripe(elem)
	s.Fill(2025)
	c.Encode(s)
	want := s.Clone()
	for _, f := range cols {
		s.ZeroColumn(f)
	}
	if err := c.Reconstruct(s, cols...); err != nil {
		return err
	}
	if !s.Equal(want) {
		return fmt.Errorf("reconstruction produced wrong data")
	}
	fmt.Fprintf(b, "verified: all %d lost elements rebuilt correctly on a %d-byte-element stripe\n",
		len(cols)*c.Rows(), elem)
	return nil
}
