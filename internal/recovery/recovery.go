// Package recovery computes single-disk-failure rebuild plans that minimize
// the number of elements read, the optimization the D-Code paper's §III-D
// cites (Xu et al., "Single disk failure recovery for X-code-based parallel
// storage systems"): by mixing both parity kinds instead of using one kind
// for every lost element, overlapping reads are shared and roughly 25% of
// the disk reads are saved.
package recovery

import (
	"fmt"
	"math"

	"dcode/internal/erasure"
)

// Plan describes how to rebuild one failed column.
type Plan struct {
	Code   string
	Failed int
	// GroupChoice[r] is the parity-group index used to rebuild row r of the
	// failed column (-1 for parity cells rebuilt by re-encoding).
	GroupChoice []int
	// Reads is the number of distinct elements read from surviving disks.
	Reads int
	// ConventionalReads is the best achievable when every lost data element
	// must use the same parity kind (the conventional scheme).
	ConventionalReads int
}

// Saving returns the fractional read reduction versus the conventional plan.
func (p Plan) Saving() float64 {
	if p.ConventionalReads == 0 {
		return 0
	}
	return 1 - float64(p.Reads)/float64(p.ConventionalReads)
}

// Optimize finds the read-minimal rebuild plan for the failed column by
// exhaustive search over per-row parity-group choices (each lost element of
// a RAID-6 code has at most two covering groups, so the space is 2^rows —
// tiny for the paper's primes). Lost parity cells are rebuilt by
// re-encoding their own group, whose members must be read anyway.
func Optimize(c *erasure.Code, failed int) (Plan, error) {
	if failed < 0 || failed >= c.Cols() {
		return Plan{}, fmt.Errorf("recovery: column %d out of range [0,%d)", failed, c.Cols())
	}
	var choices []choice
	mandatory := newCellSet(c) // cells read no matter what (parity rebuilds)

	for r := 0; r < c.Rows(); r++ {
		co := erasure.Coord{Row: r, Col: failed}
		if gi := c.ParityGroup(r, failed); gi >= 0 {
			// A lost parity element is recomputed from its members.
			for _, m := range c.Groups()[gi].Members {
				if m.Col != failed {
					mandatory.add(m)
				}
			}
			continue
		}
		var usable []int
		for _, gi := range c.MemberOf(r, failed) {
			if groupUsable(c, gi, co, failed) {
				usable = append(usable, gi)
			}
		}
		if len(usable) == 0 {
			return Plan{}, fmt.Errorf("recovery: %s: no single-failure group for %v", c.Name(), co)
		}
		choices = append(choices, choice{row: r, groups: usable})
	}

	total := 1
	for _, ch := range choices {
		total *= len(ch.groups)
		if total > 1<<22 {
			return Plan{}, fmt.Errorf("recovery: %s: search space too large (%d rows)", c.Name(), c.Rows())
		}
	}

	best := Plan{Code: c.Name(), Failed: failed, Reads: math.MaxInt}
	assignment := make([]int, len(choices))
	var walk func(i int)
	var groupCells = func(gi int, skip erasure.Coord) []erasure.Coord {
		g := c.Groups()[gi]
		cells := make([]erasure.Coord, 0, len(g.Members)+1)
		for _, m := range g.Members {
			if m != skip && m.Col != failed {
				cells = append(cells, m)
			}
		}
		if g.Parity.Col != failed {
			cells = append(cells, g.Parity)
		}
		return cells
	}
	walk = func(i int) {
		if i == len(choices) {
			set := mandatory.clone()
			for j, ch := range choices {
				gi := ch.groups[assignment[j]]
				for _, cell := range groupCells(gi, erasure.Coord{Row: ch.row, Col: failed}) {
					set.add(cell)
				}
			}
			if n := set.count(); n < best.Reads {
				best.Reads = n
				best.GroupChoice = buildChoiceVector(c, failed, choices, assignment)
			}
			return
		}
		for a := range choices[i].groups {
			assignment[i] = a
			walk(i + 1)
		}
	}
	walk(0)

	// Conventional baseline: the cheapest single-kind assignment.
	best.ConventionalReads = conventionalReads(c, failed, choices, mandatory, groupCells)
	if best.ConventionalReads < best.Reads {
		// The conventional plan is a point in the search space, so this
		// cannot happen; guard anyway.
		best.ConventionalReads = best.Reads
	}
	return best, nil
}

// Degraded expresses the plan as the schedule the raid layer's
// reconstruction executor runs: Steps rebuild each data row through its
// chosen group, then re-encode each parity row through its own group (its
// members may include just-rebuilt data cells); Fetch lists every surviving
// cell a step reads, once, in the order first needed. It fails when a step
// needs a cell of the failed column that no earlier step rebuilds.
func (p Plan) Degraded(c *erasure.Code) (erasure.DegradedPlan, error) {
	var out erasure.DegradedPlan
	for r, gi := range p.GroupChoice {
		if gi >= 0 {
			out.Steps = append(out.Steps, erasure.DegradedStep{Target: erasure.Coord{Row: r, Col: p.Failed}, Group: gi})
		}
	}
	for r := range p.GroupChoice {
		if gi := c.ParityGroup(r, p.Failed); gi >= 0 {
			out.Steps = append(out.Steps, erasure.DegradedStep{Target: erasure.Coord{Row: r, Col: p.Failed}, Group: gi})
		}
	}
	have := newCellSet(c)
	for _, st := range out.Steps {
		g := c.Groups()[st.Group]
		for i := 0; i <= len(g.Members); i++ {
			cell := g.Parity
			if i < len(g.Members) {
				cell = g.Members[i]
			}
			switch {
			case cell == st.Target || have.has(cell):
			case cell.Col == p.Failed:
				return erasure.DegradedPlan{}, fmt.Errorf("recovery: %s: rebuilding %v needs %v before it is rebuilt", c.Name(), st.Target, cell)
			default:
				have.add(cell)
				out.Fetch = append(out.Fetch, cell)
			}
		}
		have.add(st.Target)
	}
	out.Extra = len(out.Fetch)
	return out, nil
}

// choice lists the usable parity groups for one lost data row.
type choice struct {
	row    int
	groups []int
}

func buildChoiceVector(c *erasure.Code, failed int, choices []choice, assignment []int) []int {
	v := make([]int, c.Rows())
	for r := range v {
		v[r] = -1
	}
	for j, ch := range choices {
		v[ch.row] = ch.groups[assignment[j]]
	}
	return v
}

// conventionalReads computes the read count when all lost data elements use
// groups of one kind, minimized over the kinds that can cover every row.
func conventionalReads(c *erasure.Code, failed int, choices []choice, mandatory *cellSet,
	groupCells func(int, erasure.Coord) []erasure.Coord) int {

	kinds := map[erasure.GroupKind]bool{}
	for _, ch := range choices {
		for _, gi := range ch.groups {
			kinds[c.Groups()[gi].Kind] = true
		}
	}
	best := -1
	for kind := range kinds {
		set := mandatory.clone()
		feasible := true
		for _, ch := range choices {
			gi := -1
			for _, g := range ch.groups {
				if c.Groups()[g].Kind == kind {
					gi = g
					break
				}
			}
			if gi < 0 {
				feasible = false
				break
			}
			for _, cell := range groupCells(gi, erasure.Coord{Row: ch.row, Col: failed}) {
				set.add(cell)
			}
		}
		if !feasible {
			continue
		}
		if n := set.count(); best < 0 || n < best {
			best = n
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// groupUsable reports whether group gi can recover target during a single
// failure of column `failed`: no other cell of the group may be on that
// column.
func groupUsable(c *erasure.Code, gi int, target erasure.Coord, failed int) bool {
	g := c.Groups()[gi]
	if g.Parity.Col == failed {
		return false
	}
	for _, m := range g.Members {
		if m != target && m.Col == failed {
			return false
		}
	}
	return true
}

// cellSet is a bitset over stripe cells.
type cellSet struct {
	cols  int
	words []uint64
}

func newCellSet(c *erasure.Code) *cellSet {
	n := c.Rows() * c.Cols()
	return &cellSet{cols: c.Cols(), words: make([]uint64, (n+63)/64)}
}

func (s *cellSet) add(co erasure.Coord) {
	i := co.Row*s.cols + co.Col
	s.words[i/64] |= 1 << (i % 64)
}

func (s *cellSet) has(co erasure.Coord) bool {
	i := co.Row*s.cols + co.Col
	return s.words[i/64]>>(i%64)&1 == 1
}

func (s *cellSet) clone() *cellSet {
	return &cellSet{cols: s.cols, words: append([]uint64(nil), s.words...)}
}

func (s *cellSet) count() int {
	n := 0
	for _, w := range s.words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// AverageSaving runs Optimize for every column and averages the read
// savings — the repository's check of the paper's "about 25% fewer disk
// reads" claim for D-Code and X-Code.
func AverageSaving(c *erasure.Code) (avgSaving float64, avgReads, avgConv float64, err error) {
	var sumSave, sumReads, sumConv float64
	n := 0
	for f := 0; f < c.Cols(); f++ {
		p, err := Optimize(c, f)
		if err != nil {
			return 0, 0, 0, err
		}
		sumSave += p.Saving()
		sumReads += float64(p.Reads)
		sumConv += float64(p.ConventionalReads)
		n++
	}
	return sumSave / float64(n), sumReads / float64(n), sumConv / float64(n), nil
}
