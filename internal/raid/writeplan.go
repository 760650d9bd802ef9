package raid

// This file holds the healthy array's one write plan and its one executor.
// A stripe task's write touches the parity groups whose parity depends on a
// written data cell (UpdateGroups), and brings each up to date one of two
// ways:
//
//   - patched: read the old values of its written members and its old
//     parity, and fold old ⊕ new of every written byte range into the parity;
//   - re-encoded: read the members the write leaves unwritten, and fold the
//     parity afresh from the members' new values.
//
// Only the written data cells and the touched parities are written, so every
// plan writes the same w + P cells; plans differ only in the cells they read,
// and a cell read for several groups is read once. A partially written cell
// is always read: whichever way its groups go, its old bytes fill the part
// the write leaves. The planner prices two plans in reads and keeps the
// cheaper, the mixed plan on a tie:
//
//  1. mixed: re-encode every group the write covers whole — it reads nothing
//     — and patch the others;
//  2. re-encode-all: a reconstruct-write that reads only the unwritten
//     members of the touched groups.
//
// Patch-all, the paper's read-modify-write at 2w + 2P accesses (Fig. 5),
// reads a superset of the mixed plan's cells, so it is not priced; it is the
// mixed plan of a write that covers no group. Codes whose groups cover parity
// cells (FlatParity false: RDP, HDP) do not mix: they price patch-all against
// re-encode-all. Rules that re-encode more groups — those with one member
// left unwritten, those where re-encoding alone reads less, or the exact
// optimum over all 2^P mixes — read as few cells or fewer on the paper's
// D-Code p=7 stream, but they trade parity reads, which the codes spread
// over every column, for reads of the data cells around a write, and unbalance
// the columns; EXPERIMENTS.md has the measurement.

import (
	"slices"

	"dcode/internal/obs"
	"dcode/internal/stripe"
)

// writePlan forces the planner's choice; tests set it to pin a write's
// uniform twins.
type writePlan uint8

const (
	planAuto   writePlan = iota // the cheaper of mixed and re-encode-all
	planPatch                   // patch every touched group
	planEncode                  // re-encode every touched group
)

// planWrite marks one stripe task's write plan in the scratch — sc.coords the
// distinct written cells, sc.part their partial-write marks, sc.gseen the
// touched groups, sc.genc those to re-encode (the rest are patched), sc.rd
// the cells to read and sc.seen the cells to write: the written data and the
// touched parities. Re-encode-all is priced last and gives up as soon as it
// reads as many cells as the mixed plan, so a small write, which it cannot
// win, costs a few cells of it.
func (a *Array) planWrite(ers []elemRange, sc *opScratch) {
	cols := a.code.Cols()
	clear(sc.seen)
	clear(sc.part)
	clear(sc.gseen)
	coords := sc.coords[:0]
	for _, er := range ers {
		idx := er.coord.Row*cols + er.coord.Col
		if !sc.seen[idx] {
			sc.seen[idx] = true
			coords = append(coords, er.coord)
		}
		if er.length != a.elemSize {
			sc.part[idx] = true
		}
	}
	sc.coords = coords
	for _, co := range coords {
		for _, gi := range a.code.UpdateGroups(co.Row, co.Col) {
			sc.gseen[gi] = true
		}
	}

	// A group the write covers whole is re-encoded from nothing but the new
	// data — unless a member is a parity cell, or patch-all is forced.
	mix := a.writePlans == planAuto && a.code.FlatParity()
	for gi, touched := range sc.gseen {
		covered := touched && mix
		for _, m := range a.code.Groups()[gi].Members {
			if !covered {
				break
			}
			covered = sc.seen[m.Row*cols+m.Col]
		}
		sc.genc[gi] = covered
	}
	patch := -1
	if a.writePlans != planEncode {
		patch = a.patchReads(sc)
	}
	if a.writePlans != planPatch {
		if n := a.encodeReads(patch, sc); patch < 0 || n < patch {
			copy(sc.genc, sc.gseen)
			sc.rd, sc.erd = sc.erd, sc.rd
		}
	}
	a.markWrites(sc)
}

// patchReads marks in sc.rd the cells read by the plan that re-encodes the
// groups sc.genc marks — groups the write covers, which read nothing — and
// patches the other touched ones, and returns how many: the written cells a
// patched group needs the old value of, the partial ones, and the patched
// parities.
func (a *Array) patchReads(sc *opScratch) int {
	cols := a.code.Cols()
	clear(sc.rd)
	n := 0
	for _, co := range sc.coords {
		idx := co.Row*cols + co.Col
		need := sc.part[idx]
		for _, gi := range a.code.UpdateGroups(co.Row, co.Col) {
			need = need || !sc.genc[gi]
		}
		if need {
			sc.rd[idx] = true
			n++
		}
	}
	for gi, touched := range sc.gseen {
		if touched && !sc.genc[gi] {
			p := a.code.Groups()[gi].Parity
			sc.rd[p.Row*cols+p.Col] = true
			n++
		}
	}
	return n
}

// encodeReads marks in sc.erd the cells re-encode-all reads and returns how
// many: the partial cells, every touched group's unwritten data members, and
// any parity member the write leaves untouched (a touched one is brought up
// to date before the group that covers it is encoded). It gives up as soon
// as the count reaches bound (bound < 0: no bound), the marks then
// incomplete.
func (a *Array) encodeReads(bound int, sc *opScratch) int {
	cols := a.code.Cols()
	clear(sc.erd)
	n := 0
	mark := func(idx int) {
		if !sc.erd[idx] {
			sc.erd[idx] = true
			n++
		}
	}
	for _, co := range sc.coords {
		if idx := co.Row*cols + co.Col; sc.part[idx] {
			mark(idx)
		}
	}
	for gi, touched := range sc.gseen {
		if !touched {
			continue
		}
		for _, m := range a.code.Groups()[gi].Members {
			idx := m.Row*cols + m.Col
			if a.code.DataIndex(m.Row, m.Col) >= 0 {
				if !sc.seen[idx] {
					mark(idx)
				}
			} else if !sc.gseen[a.code.ParityGroup(m.Row, m.Col)] {
				mark(idx)
			}
		}
		if bound >= 0 && n >= bound {
			break
		}
	}
	return n
}

// markWrites adds the touched parities to the written data cells in sc.seen,
// which then marks every cell the plan writes.
func (a *Array) markWrites(sc *opScratch) {
	cols := a.code.Cols()
	for gi, touched := range sc.gseen {
		if touched {
			p := a.code.Groups()[gi].Parity
			sc.seen[p.Row*cols+p.Col] = true
		}
	}
}

// markedRuns is the engine's one run builder: it lists the cells marks sets
// (rows×cols, row-major) as maximal same-column runs, in sc.runs, column by
// column and down each column. Only strictly adjacent rows join a run:
// spanning a gap would move bytes no caller asked for, skewing the byte
// tallies and touching unrelated bad sectors.
func (a *Array) markedRuns(marks []bool, sc *opScratch) []cellRun {
	rows, cols := a.code.Rows(), a.code.Cols()
	runs := sc.runs[:0]
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if !marks[r*cols+c] {
				continue
			}
			if k := len(runs) - 1; k >= 0 && runs[k].col == c && runs[k].row+runs[k].n == r {
				runs[k].n++
			} else {
				runs = append(runs, cellRun{col: c, row: r, n: 1})
			}
		}
	}
	sc.runs = runs
	return runs
}

// writePlanned executes the plan planWrite left in the scratch, in four
// steps. Gather: the plan's reads come in through the run reader, mutating
// nothing, so a read failure (which marks the disk) is safe to retry on the
// degraded path. Patch: each patched parity takes old ⊕ new of every written
// byte range it covers — whole elements of one group through a single
// XORMulti pass, partial ranges on their sub-slices — so a parity shared by
// several written elements is patched once. Re-encode: the new bytes take
// their places (whole elements stay in p, through the data overlay; partial
// ranges go over sc.s) and each re-encoded parity is folded from its members.
// Commit: new data and touched parities go out through the best-effort run
// writer — a full-stripe write as one gather write per column; a disk that
// fails during commit is skipped — its contents are moot and the surviving
// cells stay mutually consistent, so the column is reconstructable.
//
// A write that patches any group counts its w written elements in
// CounterSnapshot.RMWWrites; one that patches none counts one
// FullStripeWrites.
func (a *Array) writePlanned(si int64, ers []elemRange, p []byte, sc *opScratch) error {
	if runs := a.markedRuns(sc.rd, sc); len(runs) > 0 {
		if err := a.readRuns(si, runs, nil, false, sc); err != nil {
			return err
		}
	}

	groups := a.code.Groups()
	patched, encoded := false, false
	srcs := sc.srcs
	for gi, touched := range sc.gseen {
		if !touched || sc.genc[gi] {
			encoded = encoded || sc.genc[gi]
			continue
		}
		patched = true
		pe := sc.s.Elem(groups[gi].Parity.Row, groups[gi].Parity.Col)
		srcs = srcs[:0]
		for _, er := range ers {
			if !slices.Contains(a.code.UpdateGroups(er.coord.Row, er.coord.Col), gi) {
				continue
			}
			old := sc.s.Elem(er.coord.Row, er.coord.Col)[er.start : er.start+er.length]
			upd := p[er.bufOff : er.bufOff+er.length]
			if er.length == a.elemSize {
				srcs = append(srcs, old, upd)
			} else {
				stripe.XORMulti(pe[er.start:er.start+er.length], old, upd)
			}
		}
		stripe.XORMulti(pe, srcs...)
		clear(srcs) // drop the user-buffer references before the scratch is pooled
	}
	sc.srcs = srcs

	// The patches have consumed the old data, so the new bytes may now take
	// its place.
	data := a.overlay(ers, p, sc)
	defer clear(data) // drop the user-buffer references before the scratch is pooled
	if encoded {
		ps := obs.Mono()
		a.code.EncodeGroupsFrom(sc.s, data, sc.genc)
		a.m.parityLatency.ObserveNanos(obs.Mono() - ps)
	}

	a.writeRuns(si, a.markedRuns(sc.seen, sc), data, sc)
	if a.failedCount() > 2 {
		return ErrTooManyFailures
	}
	if patched {
		a.m.rmwWrites.Add(int64(len(sc.coords)))
	} else {
		a.m.fullStripeWrites.Inc()
	}
	return nil
}
