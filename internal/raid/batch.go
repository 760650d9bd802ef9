package raid

// Cross-op write batching: a bounded write-combining window in front of the
// data path. Small writes that fall inside one stripe's data region are
// parked in a per-stripe pending buffer instead of going to the devices;
// adjacent writes merge into one range, so a later flush pays one
// read-modify-write (or one reconstruct-write) for work that would have paid
// one per call. Pending writes are flushed when
//
//   - a new write overlaps a pending range of its stripe (the pending bytes
//     must land first to keep last-writer-wins ordering),
//   - the window timer expires,
//   - the batcher holds maxBytes of pending data or more than
//     maxBatchStripes distinct stripes,
//   - a read touches a stripe with pending writes (read-your-writes),
//   - a barrier runs: Flush, FailDisk, Rebuild, Scrub.
//
// The flush path reuses writeStripeRun, so journal intent/commit bracketing
// and cache write-through behave exactly as if the caller had issued the
// merged write directly. Batching is off by default; WithBatching enables
// it. A write accepted into the window is acknowledged immediately — like a
// volatile write cache, a crash before flush loses it, which is why the
// barriers (and the journal underneath the flush) exist.
//
// Lock ordering: the batcher mutex is taken only from paths that hold no
// array lock, and every opMu.Lock caller flushes (acquiring and releasing
// the batcher mutex) *before* taking opMu. So while a flush holds the
// batcher mutex and waits for opMu.RLock, no exclusive-lock waiter can be
// queued ahead of it — exclusive lockers are still parked on the batcher
// mutex — and the read lock is always grantable.

import (
	"errors"
	"sync"
	"time"

	"dcode/internal/obs"
	"dcode/internal/trace"
)

// maxBatchStripes bounds how many distinct stripes the window may hold
// pending; one more forces a full flush.
const maxBatchStripes = 64

const (
	defaultBatchWindow   = 500 * time.Microsecond
	defaultBatchMaxBytes = 1 << 20
)

// WithBatching enables the write-combining window. window is how long a
// pending write may wait for a mergeable neighbor before the background
// flush pushes it out (≤ 0 means the 500µs default); maxBytes caps the
// pending data the window may hold before flushing inline (≤ 0 means 1MiB).
func WithBatching(window time.Duration, maxBytes int) Option {
	return func(a *Array) {
		if window <= 0 {
			window = defaultBatchWindow
		}
		if maxBytes <= 0 {
			maxBytes = defaultBatchMaxBytes
		}
		a.batch = &batcher{
			window:   window,
			maxBytes: maxBytes,
			pend:     make(map[int64]*pendingStripe),
		}
	}
}

// pendRange is one merged run of pending bytes: volume offset off, length n,
// stored at buf[bo:bo+n] of its pendingStripe.
type pendRange struct {
	off int64
	bo  int
	n   int
}

// pendingStripe accumulates the parked writes of one stripe. Ranges never
// overlap (an overlapping enqueue flushes first) but may arrive in any
// order; buf grows append-only so the newest range always ends the buffer,
// which is what makes adjacency merging a constant-time check.
type pendingStripe struct {
	si     int64
	buf    []byte
	ranges []pendRange
}

func (ps *pendingStripe) overlaps(off int64, n int) bool {
	for _, r := range ps.ranges {
		if off < r.off+int64(r.n) && r.off < off+int64(n) {
			return true
		}
	}
	return false
}

// batcher is the window state. mu guards everything below it and is held
// across flush I/O, so flushes of one batcher are serialized and a pending
// stripe can never be written back twice concurrently.
type batcher struct {
	window   time.Duration
	maxBytes int

	mu       sync.Mutex
	pend     map[int64]*pendingStripe
	order    []int64 // flush in arrival order
	bytes    int
	timer    *time.Timer
	timerSet bool
	err      error // sticky background-flush error; surfaced by the next write or Flush
	free     []*pendingStripe
}

func (b *batcher) getPending(si int64) *pendingStripe {
	if n := len(b.free); n > 0 {
		ps := b.free[n-1]
		b.free = b.free[:n-1]
		ps.si = si
		ps.buf = ps.buf[:0]
		ps.ranges = ps.ranges[:0]
		return ps
	}
	return &pendingStripe{si: si}
}

// takeErr consumes the sticky error. Callers hold b.mu.
func (b *batcher) takeErr() error {
	err := b.err
	b.err = nil
	return err
}

// stripeDataBytes is the size of one stripe's data region — the unit the
// batcher partitions the volume by.
func (a *Array) stripeDataBytes() int64 {
	return int64(a.code.DataElems()) * int64(a.elemSize)
}

// writeAtBatched is WriteAt's front end when batching is on. Writes confined
// to one stripe's data region park in the window; anything else flushes what
// it overlaps and takes the regular path.
func (a *Array) writeAtBatched(p []byte, off int64, parent trace.Link) (int, error) {
	if off < 0 || off+int64(len(p)) > a.Size() {
		return 0, outOfRangeErr(a, off, len(p))
	}
	sdb := a.stripeDataBytes()
	si := off / sdb
	if off+int64(len(p)) > (si+1)*sdb || int64(len(p)) >= sdb {
		// Spans stripes or covers a full stripe: nothing to gain from the
		// window. Push out any pending overlap so ordering holds, then write
		// through.
		last := si
		if len(p) > 0 {
			last = (off + int64(len(p)) - 1) / sdb
		}
		if err := a.flushStripes(si, last); err != nil {
			return 0, err
		}
		return a.writeAtDirect(p, off, parent)
	}
	return a.enqueueWrite(p, off, si, parent)
}

// enqueueWrite parks one stripe-local write in the window, merging it with
// an adjacent pending range when possible, and triggers an inline flush when
// the window is full. The write is acknowledged (counted and traced like any
// WriteAt) as soon as it is parked.
func (a *Array) enqueueWrite(p []byte, off int64, si int64, parent trace.Link) (int, error) {
	b := a.batch
	tc := a.tr.Begin(trace.OpWrite, -1, si, parent)
	start := obs.Mono()
	b.mu.Lock()
	if err := b.takeErr(); err != nil {
		b.mu.Unlock()
		a.tr.End(tc, 0, true)
		return 0, err
	}
	ps := b.pend[si]
	if ps != nil && ps.overlaps(off, len(p)) {
		if err := a.flushPendingLocked(si); err != nil {
			b.mu.Unlock()
			a.tr.End(tc, 0, true)
			return 0, err
		}
		ps = nil
	}
	if len(p) > 0 {
		if ps == nil {
			ps = b.getPending(si)
			b.pend[si] = ps
			b.order = append(b.order, si)
		}
		bo := len(ps.buf)
		ps.buf = append(ps.buf, p...)
		if k := len(ps.ranges); k > 0 && ps.ranges[k-1].off+int64(ps.ranges[k-1].n) == off {
			// The previous range ends exactly where this write begins, and
			// its bytes end the buffer: extend it into one contiguous run.
			ps.ranges[k-1].n += len(p)
			a.m.batchMergedWrites.Inc()
		} else {
			ps.ranges = append(ps.ranges, pendRange{off: off, bo: bo, n: len(p)})
		}
		b.bytes += len(p)
	}
	a.m.writes.Inc()
	a.m.batchedWrites.Inc()
	var err error
	if b.bytes >= b.maxBytes || len(b.pend) > maxBatchStripes {
		err = a.flushAllLocked()
	} else if len(b.pend) > 0 && !b.timerSet {
		b.timerSet = true
		if b.timer == nil {
			b.timer = time.AfterFunc(b.window, a.backgroundFlush)
		} else {
			b.timer.Reset(b.window)
		}
	}
	b.mu.Unlock()
	a.m.writeLatency.ObserveNanos(obs.Mono() - start)
	a.tr.End(tc, int64(len(p)), err != nil)
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// backgroundFlush is the window timer's callback. Its error has no caller to
// return to, so it parks as the sticky error the next write or Flush
// surfaces.
func (a *Array) backgroundFlush() {
	b := a.batch
	b.mu.Lock()
	b.timerSet = false
	//lint:ignore lockcheck the flush path takes opMu.RLock under the batcher mutex, but every opMu.Lock caller flushes (acquiring and releasing the batcher mutex) before locking, so no exclusive waiter can be queued while the batcher mutex is held and the read lock is always grantable — see the lock-ordering note at the top of this file
	if err := a.flushAllLocked(); err != nil && b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

// flushAllLocked writes back every pending stripe in arrival order. It keeps
// going after an error — later stripes are independent and their data must
// not be stranded — and returns the first error. Callers hold b.mu.
func (a *Array) flushAllLocked() error {
	b := a.batch
	var first error
	for _, si := range b.order {
		if _, ok := b.pend[si]; !ok {
			continue
		}
		if err := a.flushPendingLocked(si); err != nil && first == nil {
			first = err
		}
	}
	b.order = b.order[:0]
	if b.timerSet {
		b.timer.Stop()
		b.timerSet = false
	}
	return first
}

// flushPendingLocked writes back one stripe's pending ranges as a single
// stripe run — one journal intent/commit, one pass through the write
// planner. Callers hold b.mu.
func (a *Array) flushPendingLocked(si int64) error {
	b := a.batch
	ps := b.pend[si]
	if ps == nil {
		return nil
	}
	delete(b.pend, si)
	b.bytes -= len(ps.buf)
	a.m.batchFlushes.Inc()
	a.ev.Record(obs.EvBatchFlush, -1, si, 0, int64(len(ps.buf)))

	a.opMu.RLock()
	defer a.opMu.RUnlock()
	ob := a.getOpBuf()
	defer a.putOpBuf(ob)
	ranges := ob.ranges[:0]
	var err error
	for _, pr := range ps.ranges {
		mark := len(ranges)
		if ranges, err = a.splitBytes(pr.off, pr.n, ranges); err != nil {
			ob.ranges = ranges
			return err // unreachable: the range was validated at enqueue
		}
		// splitBytes numbers buffer offsets from zero per call; rebase them
		// onto the range's position in the pending buffer.
		for i := mark; i < len(ranges); i++ {
			ranges[i].bufOff += pr.bo
		}
	}
	ob.ranges = ranges
	err = a.writeStripeRun(stripeRun{si: si, lo: 0, hi: len(ranges)}, ranges, ps.buf, trace.Link{})
	b.free = append(b.free, ps)
	return err
}

// flushStripes pushes out pending stripes intersecting [lo, hi]. ReadAt uses
// it for read-your-writes; the stripe-spanning write path uses it for
// ordering. No-op without batching.
func (a *Array) flushStripes(lo, hi int64) error {
	b := a.batch
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var first error
	for si := lo; si <= hi; si++ {
		if _, ok := b.pend[si]; !ok {
			continue
		}
		//lint:ignore lockcheck safe for the same reason as backgroundFlush: opMu.Lock callers drain the batcher mutex first, so the read lock acquired under it cannot deadlock
		if err := a.flushPendingLocked(si); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush writes back every write still parked in the batching window and
// returns the first error, including any sticky error from a background
// flush. Without batching there is nothing to flush and Flush returns nil.
// FailDisk, Rebuild and Scrub all flush before they take the array, so
// maintenance always observes the volume the writers produced.
func (a *Array) Flush() error {
	b := a.batch
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	serr := b.takeErr()
	//lint:ignore lockcheck safe for the same reason as backgroundFlush: opMu.Lock callers drain the batcher mutex first, so the read lock acquired under it cannot deadlock
	ferr := a.flushAllLocked()
	switch {
	case serr == nil:
		return ferr
	case ferr == nil:
		return serr
	}
	return errors.Join(serr, ferr)
}
