package raid

// Asynchronous device scheduling. With WithAsyncIO enabled the array routes
// every per-column fan-out of a stripe task — the coalesced run reads and
// writes of the general path, full-stripe loads and stores, and the vectored
// direct paths — through one blockdev.AsyncQueue instead of spawning a
// goroutine per column: a stripe task stages all its device runs, kicks the
// queue once (one io_uring_enter on the ring engine), and harvests the
// completion handles. Device overlap then comes from the queue's depth, not
// from goroutine count — a ReadAt costs O(1) goroutines instead of
// O(columns).
//
// Semantics are identical to the synchronous path by construction:
//
//   - the same coalesced runs are issued against the same Instrumented
//     devices, so the per-disk ops/bytes tallies — the paper's I/O-load
//     metric — are unchanged;
//   - a run that errors falls back to the same element-at-a-time repair the
//     synchronous path uses (readElem's bad-sector read-repair and
//     failure-marking, writeElem's best-effort retry);
//   - trace spans Begin at submit and End after completion (plus any
//     fallback), so span duration now includes queue time — comparing
//     OpDevRead spans against the device service histograms exposes
//     queueing delay.
//
// Buffer lifetime: the engine owns submitted buffers until their completion
// is waited on (see internal/blockdev's async docs). Every helper below
// therefore harvests ALL completions of its batch — even after an early
// error — before returning, so pooled scratch and caller buffers are never
// recycled under an in-flight operation.

import (
	"dcode/internal/blockdev"
	"dcode/internal/erasure"
	"dcode/internal/stripe"
	"dcode/internal/trace"
)

// WithAsyncIO enables the asynchronous device-submission engine with the
// given queue depth (ops usefully in flight across the whole array; n ≤ 0
// selects blockdev.DefaultAsyncDepth). Off by default; the default
// synchronous path is untouched when the option is absent.
func WithAsyncIO(depth int) Option {
	return func(a *Array) {
		if depth <= 0 {
			depth = blockdev.DefaultAsyncDepth
		}
		a.asyncDepth = depth
	}
}

// AsyncEnabled reports whether the array submits device I/O asynchronously.
func (a *Array) AsyncEnabled() bool { return a.aio != nil }

// AsyncEngine returns the backend name ("uring" or "pool"), or "" when
// async I/O is off.
func (a *Array) AsyncEngine() string {
	if a.aio == nil {
		return ""
	}
	return a.aio.Engine()
}

// Close releases array resources: parked batched writes flush and the async
// engine drains and shuts down. It does not close the underlying devices —
// the caller opened them and keeps their lifetime. An array without batching
// or async I/O needs no Close (it stays a cheap no-op).
func (a *Array) Close() error {
	err := a.Flush()
	if a.aio != nil {
		if cerr := a.aio.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// readRunsAsync serves a batch of coalesced runs through the async engine:
// stage every run, kick once, harvest everything. A failed column yields
// ErrFailed for its run without touching the device (as readRunDev); a run
// whose submitted read errors falls back to element-at-a-time readElem,
// which repairs bad sectors in place and marks the disk failed on real
// errors — exactly the synchronous fallback. Returns the error of the
// lowest-indexed failed run, matching fanOut's semantics.
func (a *Array) readRunsAsync(si int64, runs []cellRun, s *stripe.Stripe, sc *opScratch) error {
	abufs := sc.abufs[:0]
	for _, r := range runs {
		abufs = append(abufs, s.ColRange(r.col, r.row, r.n))
	}
	sc.abufs = abufs
	comps := sc.comps[:0]
	ctcs := sc.ctcs[:0]
	parent := sc.tc.Link()
	for i, r := range runs {
		ctcs = append(ctcs, a.tr.Begin(trace.OpDevRead, int32(r.col), si, parent))
		if a.isFailed(r.col) {
			comps = append(comps, nil)
			continue
		}
		comps = append(comps, a.aio.SubmitReadVec(r.col, abufs[i:i+1], a.deviceOffset(si, r.row), int64(r.n)))
	}
	a.aio.Kick()
	// Harvest every completion before any fallback touches stripe memory the
	// engine may still be writing; the second pass consumes the recorded
	// results with nothing left in flight.
	aerrs := sc.aerrs[:0]
	for _, c := range comps {
		if c == nil {
			aerrs = append(aerrs, blockdev.ErrFailed)
			continue
		}
		_, err := c.Wait()
		aerrs = append(aerrs, err)
	}
	var firstErr error
	for i, r := range runs {
		err := aerrs[i]
		if comps[i] != nil && err != nil {
			err = a.readRunElems(si, r, s)
		}
		a.tr.End(ctcs[i], int64(r.n*a.elemSize), err != nil)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	sc.comps, sc.ctcs, sc.aerrs = comps, ctcs, aerrs
	clear(comps) // drop completion (and buffer) references before pooling
	clear(abufs)
	clear(aerrs)
	return firstErr
}

// readRunElems is the element-at-a-time fallback of an errored run — the
// same loop readRunDev retries with, with readElem's transparent bad-sector
// repair and failure marking.
func (a *Array) readRunElems(si int64, r cellRun, s *stripe.Stripe) error {
	for k := 0; k < r.n; k++ {
		co := erasure.Coord{Row: r.row + k, Col: r.col}
		if err := a.readElem(si, co, s.Elem(co.Row, co.Col)); err != nil {
			return err
		}
	}
	return nil
}

// readVecRunsAsync is the async twin of the direct read path's fan-out: each
// coalesced vecRun scatters straight into the caller's buffer as one staged
// vectored read, one kick covers the whole stripe. Any error abandons the
// stripe to the general path (as readStripeDirect), but only after every
// completion is harvested — the kernel may still be scattering into the
// caller's buffer, which the general path is about to overwrite.
func (a *Array) readVecRunsAsync(si int64, vruns []vecRun, sc *opScratch) bool {
	comps := sc.comps[:0]
	ctcs := sc.ctcs[:0]
	parent := sc.tc.Link()
	for _, r := range vruns {
		ctcs = append(ctcs, a.tr.Begin(trace.OpDevRead, int32(r.col), si, parent))
		comps = append(comps, a.aio.SubmitReadVec(r.col, sc.vecbufs[r.lo:r.hi], a.deviceOffset(si, r.row), int64(r.n)))
	}
	a.aio.Kick()
	ok := true
	for i, c := range comps {
		_, err := c.Wait()
		a.tr.End(ctcs[i], int64(vruns[i].n*a.elemSize), err != nil)
		if err != nil {
			ok = false
		}
	}
	sc.comps, sc.ctcs = comps, ctcs
	clear(comps) // the completions reference the caller's buffer; drop them
	return ok
}

// writeVecRunsAsync is writeRuns' async form: every staged run of a commit
// goes out as one gather write in one batch. Failed columns are skipped
// before submission (their spans still record the run, as writeVecRun); an
// errored run retries element-at-a-time from its iovec list (writeElem marks
// the disk failed and keeps the cells it can take) — identical best-effort
// semantics to the synchronous commit, and nothing propagates.
func (a *Array) writeVecRunsAsync(si int64, vruns []vecRun, sc *opScratch) {
	comps := sc.comps[:0]
	ctcs := sc.ctcs[:0]
	parent := sc.tc.Link()
	for _, r := range vruns {
		ctcs = append(ctcs, a.tr.Begin(trace.OpDevWrite, int32(r.col), si, parent))
		if a.isFailed(r.col) {
			comps = append(comps, nil)
			continue
		}
		comps = append(comps, a.aio.SubmitWriteVec(r.col, sc.vecbufs[r.lo:r.hi], a.deviceOffset(si, r.row), int64(r.n)))
	}
	a.aio.Kick()
	aerrs := sc.aerrs[:0]
	for _, c := range comps {
		if c == nil {
			aerrs = append(aerrs, nil)
			continue
		}
		_, err := c.Wait()
		aerrs = append(aerrs, err)
	}
	for i, r := range vruns {
		err := aerrs[i]
		if err != nil {
			bufs := sc.vecbufs[r.lo:r.hi]
			for k := 0; k < r.n; k++ {
				_ = a.writeElem(si, erasure.Coord{Row: r.row + k, Col: r.col}, a.runCell(bufs, k))
			}
		}
		a.tr.End(ctcs[i], int64(r.n*a.elemSize), err != nil)
	}
	sc.comps, sc.ctcs, sc.aerrs = comps, ctcs, aerrs
	clear(comps) // the completions reference the caller's buffer; drop them
	clear(aerrs)
}
