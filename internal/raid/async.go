package raid

// Asynchronous device scheduling. With WithAsyncIO enabled the run reader
// and run writer (readRuns, writeRuns) issue a stripe task's staged runs —
// the coalesced reads and writes of the general path, full-stripe loads and
// stores, and the direct read — through one blockdev.AsyncQueue instead of
// spawning a goroutine per column: the task stages all its runs, kicks the
// queue once, and harvests the completion handles. Device overlap then comes from the queue's depth, not
// from goroutine count — a ReadAt costs O(1) goroutines instead of
// O(columns).
//
// Semantics are identical to the synchronous path by construction:
//
//   - the same staged runs are issued against the same Instrumented devices
//     with the same ops-equivalent counts and span links, so the per-disk
//     ops/bytes tallies — the paper's I/O-load metric — are unchanged;
//   - each run then settles exactly as issueRun does (settleRun: a failed
//     cell's one error handled directly, a longer run retried element by
//     element with read-repair and failure marking);
//   - trace spans Begin at submit and End after completion (plus any
//     retry), so span duration includes queue time — comparing OpDevRead
//     spans against the device service histograms exposes queueing delay.
//
// Buffer lifetime: the queue owns submitted buffers until their completion
// is waited on (see internal/blockdev's async docs). asyncRuns therefore
// harvests ALL completions of its batch — even after an early error — before
// any retry runs or it returns, so pooled scratch and caller buffers are
// never recycled under an in-flight operation.

import "dcode/internal/blockdev"

// WithAsyncIO enables the asynchronous device-submission queue with the
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

// Close releases array resources: the async queue drains and shuts down. It
// does not close the underlying devices — the caller opened them and keeps
// their lifetime. An array without async I/O needs no Close (it stays a
// cheap no-op).
func (a *Array) Close() error {
	if a.aio == nil {
		return nil
	}
	return a.aio.Close()
}

// asyncRuns is issueRuns' async form: every staged run is submitted under
// its device span (a run on a failed column submits nothing and fails with
// ErrFailed), one Kick covers the batch, every completion is harvested, and
// then each run settles and ends as in issueRun. It returns the error of the
// lowest-indexed failed read run; writes return nil.
func (a *Array) asyncRuns(write bool, si int64, vruns []vecRun, sc *opScratch) error {
	comps := sc.comps[:0]
	ctcs := sc.ctcs[:0]
	for _, r := range vruns {
		tc := a.tr.Begin(devOp(write), int32(r.col), si, sc.tc.Link())
		var c *blockdev.Completion
		if !a.isFailed(r.col) {
			bufs, off, ops := sc.vecbufs[r.lo:r.hi], a.deviceOffset(si, r.row), int64(r.n)
			if write {
				c = a.aio.SubmitWriteVec(r.col, bufs, off, ops, tc.Link())
			} else {
				c = a.aio.SubmitReadVec(r.col, bufs, off, ops, tc.Link())
			}
		}
		comps = append(comps, c)
		ctcs = append(ctcs, tc)
	}
	a.aio.Kick()
	aerrs := sc.aerrs[:0]
	for _, c := range comps {
		err := blockdev.ErrFailed
		if c != nil {
			_, err = c.Wait()
		}
		aerrs = append(aerrs, err)
	}
	var firstErr error
	for i, r := range vruns {
		err := aerrs[i]
		if comps[i] != nil {
			err = a.settleRun(write, si, r, sc.vecbufs[r.lo:r.hi], err, ctcs[i].Link())
		}
		if err = a.endRun(write, r, ctcs[i], err); firstErr == nil {
			firstErr = err
		}
	}
	sc.comps, sc.ctcs, sc.aerrs = comps, ctcs, aerrs
	clear(comps) // drop completion (and buffer) references before pooling
	clear(aerrs)
	return firstErr
}
