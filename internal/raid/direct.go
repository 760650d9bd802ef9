package raid

// This file holds the array's one stripe reader and the data overlay it shares
// with the write commit. Every read stripe task — aligned or not, on a
// healthy array or with up to two columns down — goes through
// readStripeRanges. It stages the task's whole-element ranges as views of the
// caller's buffer (the overlay) and reads the cells it needs — the wanted
// ones, or the memoized degraded plan's Fetch when a wanted cell is on the one
// failed column — through the reconstruction executor (fetchFold), which
// marks them, reads them in runs through the one run reader (readRuns) and
// folds each plan step. Each run is one scatter read whose iovecs point into
// the caller's buffer for whole wanted cells and into stripe memory for
// partial and recovery-only cells — or, from a bare MemDevice column, a run
// bound wholly for stripe memory is lent rather than read: the stripe
// borrows a view of the medium, and the fold and the copy-out read the cells
// there (loans, concurrency.go). Each step folds its lost target into the
// target's destination (CellFrom: the caller's buffer for a whole range,
// stripe memory for a partial one), and only partial ranges are copied out.
// A task that wants a lost cell while two columns are down loads and
// reconstructs the whole stripe in stripe memory and copies every range out.
//
// Writes of every shape commit through the same overlay (overlay, then
// writeRuns in concurrency.go): whole written elements leave from the
// caller's buffer, so only partial ranges and parity live in stripe memory.
//
// Accounting is one physical call per coalesced run, tallied as run-length
// element accesses, under one OpDevRead span each. A bad sector is repaired in
// place by the run reader; a device error that marks a disk makes the reader
// re-plan the stripe around the newly failed column. Buffer ownership: the
// caller's bytes are referenced only until the stripe task returns — the
// overlay and every iovec list are cleared before the scratch goes back to
// its pool.

import (
	"fmt"
	"math/bits"

	"dcode/internal/erasure"
)

// readStripeRanges serves one stripe's element ranges into p. A task that
// wants a lost cell opens the task's degraded record once, however often a
// newly failed disk makes it re-plan.
func (a *Array) readStripeRanges(si int64, ers []elemRange, p []byte, sc *opScratch) error {
	defer clear(sc.data)
	for {
		failed := a.failedSet()
		if failed.count() > 2 {
			return ErrTooManyFailures
		}
		// The overlay's copy of a partial range into stripe memory is moot
		// here: the read or the fold below overwrites the whole cell.
		data := a.overlay(ers, p, sc)
		cells := sc.coords[:0]
		lost := false
		for _, er := range ers {
			cells = append(cells, er.coord)
			lost = lost || failed.has(er.coord.Col)
		}
		sc.coords = cells
		if lost && failed.count() == 2 {
			a.beginDegraded(si, -1, len(cells), sc)
			clear(data) // every range copies out of the loaded stripe
			if err := a.loadStripe(si, 0, sc); err != nil {
				return err
			}
		} else {
			plan := erasure.DegradedPlan{Fetch: cells} // healthy: the wanted cells
			if lost {
				down := bits.TrailingZeros64(uint64(failed))
				a.beginDegraded(si, down, len(cells), sc)
				pl, err := a.planDegraded(down, cells)
				if err != nil {
					return err
				}
				plan = *pl
			}
			if a.fetchFold(si, &plan, data, sc) != nil {
				continue // a disk was discovered failed; re-plan
			}
		}
		a.endDegraded(sc) // the degraded record times the fetch, not the copy-out
		for _, er := range ers {
			if data[a.code.DataIndex(er.coord.Row, er.coord.Col)] == nil {
				copy(p[er.bufOff:er.bufOff+er.length],
					sc.s.Elem(er.coord.Row, er.coord.Col)[er.start:er.start+er.length])
			}
		}
		return nil
	}
}

// fetchFold is the engine's one reconstruction executor, the fetch-and-fold
// of the paper's low-I/O degraded read (§IV) and hybrid single-failure
// recovery (§III-D): it marks the cells plan fetches, reads them through the
// run reader — into their overlay views where data holds them, stripe memory
// otherwise — and folds each step's target, in order, into its destination
// (CellFrom: the overlay's view or the target's cell in sc.s), where later
// steps read it. Its callers are the stripe reader (the memoized plan of a
// degraded read; a healthy read is a plan with nothing to fold), Rebuild (one
// plan per call, no overlay) and read-repair (the memoized one-cell plan).
// Runs bound for stripe memory are borrowed where the column lends; the
// loans stay out until the scratch is pooled, so the caller reads fetched
// cells through sc.s until then. A step never folds into a lent cell —
// targets are lost cells, which nothing fetched — and one that would panics
// rather than write a device's medium behind its back. An error means a
// run's column is down, nothing was folded and nothing is lent.
func (a *Array) fetchFold(si int64, plan *erasure.DegradedPlan, data [][]byte, sc *opScratch) error {
	cols := a.code.Cols()
	clear(sc.seen)
	for _, co := range plan.Fetch {
		sc.seen[co.Row*cols+co.Col] = true
	}
	if err := a.readRuns(si, a.markedRuns(sc.seen, sc), data, true, sc); err != nil {
		a.returnLoans(sc)
		return err
	}
	for _, step := range plan.Steps {
		if sc.s.Borrowed(step.Target.Row, step.Target.Col) {
			panic(fmt.Sprintf("raid: stripe %d: plan step folds into %v, a cell lent by its device", si, step.Target))
		}
		dst := a.code.CellFrom(sc.s, data, step.Target)
		a.countDecodeXOR(a.code.FoldGroup(dst, sc.s, data, step.Group, step.Target))
	}
	return nil
}

// overlay stages one stripe task's ranges as erasure's data overlay, in
// sc.data: a whole-element range becomes a view of p at the element's data
// index — FoldGroup, EncodeFrom and the run readers and writers use it from
// there, so those bytes never transit stripe memory — and a partial range is
// copied over its cell in sc.s, whose old bytes fill the rest of the element
// for a write. The caller clears the overlay once the stripe task is done
// with it, before the scratch is pooled.
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
