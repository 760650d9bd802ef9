package raid

// This file holds the zero-copy read path of the data plane and the data
// overlay it shares with the write commit. When a read's stripe task is fully
// element-aligned on an array that is healthy or has one failed column, the
// array skips the stripe arena for every wanted element: the cells to read —
// the wanted ones, or the memoized degraded plan's Fetch when a wanted cell
// is on the failed column — are coalesced into the runs the general path
// would issue and read by the one run reader (readRuns), each run one scatter
// read whose iovecs point into the caller's buffer for wanted cells and into
// stripe memory only for recovery-only cells. Each plan step then folds its
// lost target straight into the target's slice of the caller's buffer
// (FoldGroup through the overlay).
//
// Writes of every shape commit through the same overlay (overlay, then
// writeRuns in concurrency.go): whole written elements leave from the
// caller's buffer, so only partial ranges and parity live in stripe memory.
//
// The read path preserves the general path's accounting exactly: the same
// coalesced runs, the same ops-equivalent tallies (one physical call stands
// for run-length element accesses), the same OpDevRead trace spans, and the
// same XOR counts. A bad sector is repaired in place, as on the general path;
// a device error that marks a disk abandons the direct read and lets the
// general path re-plan the stripe. Buffer ownership: the caller's bytes are
// referenced only until the stripe task returns — the overlay and every iovec
// list are cleared before the scratch goes back to its pool.

import (
	"math/bits"

	"dcode/internal/erasure"
)

// directRangesEligible reports whether every range covers a whole element —
// the alignment the direct read requires.
func (a *Array) directRangesEligible(ers []elemRange) bool {
	for _, er := range ers {
		if er.start != 0 || er.length != a.elemSize {
			return false
		}
	}
	return true
}

// readStripeDirect serves one stripe's element ranges straight into the
// caller's buffer. It returns true only when the stripe was fully served. A
// bad sector under any run is repaired in place by the run reader; a read
// that marks a disk failed returns false with the buffer contents
// unspecified, and the caller falls back to the general path, which re-plans
// around the newly failed column. Eligible with fully aligned ranges and at
// most one failed column. A task that wants a cell on the failed column reads
// the degraded plan's Fetch instead of the wanted cells and opens the task's
// degraded record, so a fall back to the general path does not count it
// again. Device calls, per-disk tallies and XOR counts are exactly the
// general path's (readCells, fetchPlanned); only the copy of every wanted
// element out of sc.s is gone.
func (a *Array) readStripeDirect(si int64, ers []elemRange, p []byte, sc *opScratch) bool {
	if a.directOff || !a.directRangesEligible(ers) {
		return false
	}
	down := -1
	switch failed := a.failedSet(); failed.count() {
	case 0:
	case 1:
		down = bits.TrailingZeros64(uint64(failed))
	default:
		return false
	}
	data := a.overlay(ers, p, sc)
	defer clear(data)
	cells := sc.coords[:0]
	lost := false
	for _, er := range ers {
		cells = append(cells, er.coord)
		lost = lost || er.coord.Col == down
	}
	sc.coords = cells
	var plan *erasure.DegradedPlan
	if lost {
		var err error
		if plan, err = a.planDegraded(down, cells); err != nil {
			return false // the general path plans again and reports the error
		}
		a.beginDegraded(si, down, len(cells), sc)
		// The plan is shared; coalesce sorts, so it sorts a copy.
		cells = append(sc.fetch[:0], plan.Fetch...)
		sc.fetch = cells
	}
	if a.readRuns(si, coalesce(cells, sc), data, sc) != nil {
		return false
	}
	if plan == nil {
		return true
	}
	for _, step := range plan.Steps {
		dst := data[a.code.DataIndex(step.Target.Row, step.Target.Col)]
		a.countDecodeXOR(a.code.FoldGroup(dst, sc.s, data, step.Group, step.Target))
	}
	return true
}

// overlay stages one stripe task's ranges as erasure's data overlay, in
// sc.data: a whole-element range becomes a view of p at the element's data
// index — FoldGroup, EncodeFrom and the run writers read it from there, so
// those bytes never transit stripe memory — and a partial range (writes
// only) is copied over its cell in sc.s, whose old bytes fill the rest of the
// element. The caller clears the overlay once the stripe task is done with
// it, before the scratch is pooled.
func (a *Array) overlay(ers []elemRange, p []byte, sc *opScratch) [][]byte {
	data := sc.data
	for _, er := range ers {
		if er.length == a.elemSize {
			data[a.code.DataIndex(er.coord.Row, er.coord.Col)] = p[er.bufOff : er.bufOff+er.length]
		} else {
			copy(sc.s.Elem(er.coord.Row, er.coord.Col)[er.start:er.start+er.length],
				p[er.bufOff:er.bufOff+er.length])
		}
	}
	return data
}
