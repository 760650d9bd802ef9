// Package raid is a working software RAID-6 engine over any array code in
// this repository: it stripes a byte-addressed volume across block devices,
// serves reads and writes (including unaligned ones), survives and repairs
// up to two concurrent disk failures, performs degraded reads and writes,
// rebuilds replaced disks, and scrubs parity.
//
// It is the "real storage system" layer of the reproduction: the paper ran
// its codes under Jerasure on a 16-disk array; this package plays that role
// on top of internal/blockdev devices.
package raid

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"dcode/internal/blockdev"
	"dcode/internal/erasure"
	"dcode/internal/obs"
	"dcode/internal/recovery"
	"dcode/internal/trace"
)

// ErrTooManyFailures is returned when more than two disks are unavailable.
var ErrTooManyFailures = errors.New("raid: more than two disks failed")

// Array is a RAID-6 volume. All methods are safe for concurrent use:
// reads and writes to different stripes run in parallel (striped locking),
// same-stripe operations serialize, and maintenance operations (FailDisk,
// Rebuild, Scrub) take the array exclusively.
type Array struct {
	code     *erasure.Code
	elemSize int
	stripes  int64

	// opMu is held shared by data-path operations and exclusively by
	// maintenance operations.
	opMu sync.RWMutex
	// stripeLocks serialize same-stripe data-path work; a data-path
	// operation holds at most one shard at a time, so there is no ordering
	// to deadlock on.
	stripeLocks [64]sync.Mutex

	// failed is the failed-column set, bit c for column c (New rejects codes
	// wider than 64 columns). Every device call and stripe task reads it with
	// one atomic load; failMu only serializes the rare transitions.
	failMu sync.Mutex
	failed atomic.Uint64

	// m and iodevs are the observability layer (see obs.go): lock-free
	// counters and latency histograms at the array level, plus a
	// blockdev.Instrumented wrapper per column feeding the per-disk I/O
	// load view. Every access — data path, repair, rebuild — goes through
	// these wrappers and is tallied.
	m      arrayMetrics
	iodevs []*blockdev.Instrumented

	// tr is the structured tracer (trace.Nop unless WithTracer attached
	// one) and window the always-on rolling per-disk load tracker; both are
	// wired by initObservability (see trace.go).
	tr     *trace.Tracer
	window *obs.LoadWindow

	// jnl, when non-nil, brackets every stripe mutation with intent/commit
	// records (see journal.go).
	jnl *journal

	// conc bounds each fan-out point of the data path (see concurrency.go);
	// scratch and opBufs recycle the per-operation buffers so the
	// steady-state data path does not allocate. Coalesced column I/O needs no
	// staging pool: the column-major stripe layout lets device calls move
	// bytes directly between stripe memory and the device.
	conc    int
	scratch sync.Pool
	opBufs  sync.Pool

	// plans memoizes degraded-read plans per failure signature (see
	// plancache.go); planMemoOff disables it for benchmarking the saving.
	plans       planMemo
	planMemoOff bool

	// writePlans, when not planAuto, forces the write planner's choice (see
	// writeplan.go), so tests can pin the patch-all and re-encode-all twins
	// of a write.
	writePlans writePlan

	// serverStats, when set (SetServerStats), contributes the network block
	// service's per-client metrics to Snapshot.
	serverStats func() obs.ServerSnapshot

	// ev is the flight recorder (WithEvents); nil records nothing.
	ev *obs.Recorder
}

func (a *Array) lockStripe(si int64) *sync.Mutex {
	return &a.stripeLocks[si%int64(len(a.stripeLocks))]
}

// failSet is a snapshot of the failed-column set: bit c is set while column c
// is down.
type failSet uint64

func (f failSet) has(col int) bool { return f&(1<<uint(col)) != 0 }
func (f failSet) count() int       { return bits.OnesCount64(uint64(f)) }

// cols appends the failed columns to dst in ascending order.
func (f failSet) cols(dst []int) []int {
	for m := uint64(f); m != 0; m &= m - 1 {
		dst = append(dst, bits.TrailingZeros64(m))
	}
	return dst
}

func (a *Array) failedSet() failSet    { return failSet(a.failed.Load()) }
func (a *Array) isFailed(col int) bool { return a.failedSet().has(col) }
func (a *Array) failedCount() int      { return a.failedSet().count() }

// markFailed marks col failed and reports whether this call made the
// transition (false when the column was already down).
func (a *Array) markFailed(col int) bool {
	a.failMu.Lock()
	old := a.failedSet()
	a.failed.Store(uint64(old) | 1<<uint(col))
	a.failMu.Unlock()
	return !old.has(col)
}

// failDisk is markFailed plus the flight-recorder event, stamped with the
// trace ID of the operation that discovered the failure (0 when none).
func (a *Array) failDisk(col int, traceID uint64) {
	if a.markFailed(col) {
		a.ev.Record(obs.EvDiskFailed, int32(col), -1, traceID, 0)
	}
}

func (a *Array) clearFailed(col int) {
	a.failMu.Lock()
	a.failed.Store(a.failed.Load() &^ (1 << uint(col)))
	a.failMu.Unlock()
}

// Stats aggregates array-level counters.
type Stats struct {
	Reads, Writes    int64 // logical operations served
	DegradedReads    int64 // reads that needed reconstruction
	FullStripeWrites int64 // stripe writes that patched no parity (re-encoded, full-stripe or degraded)
	RMWWrites        int64 // elements written by stripe writes that patched a parity
	StripesRebuilt   int64
	ScrubErrorsFixed int64
	SectorsRepaired  int64 // latent sector errors healed by read-repair
}

// New assembles an array from one device per column of the code. Every
// device must hold at least `stripes` stripes of rows×elemSize bytes.
// Options tune the array; see WithConcurrency.
func New(code *erasure.Code, devs []blockdev.Device, elemSize int, stripes int64, opts ...Option) (*Array, error) {
	if len(devs) != code.Cols() {
		return nil, fmt.Errorf("raid: %d devices for a %d-column code", len(devs), code.Cols())
	}
	if code.Cols() > 64 {
		return nil, fmt.Errorf("raid: %d columns exceed the 64 the failure mask tracks", code.Cols())
	}
	if elemSize <= 0 {
		return nil, fmt.Errorf("raid: element size %d must be positive", elemSize)
	}
	if stripes <= 0 {
		return nil, fmt.Errorf("raid: stripe count %d must be positive", stripes)
	}
	need := stripes * int64(code.Rows()) * int64(elemSize)
	for i, d := range devs {
		if d.Size() < need {
			return nil, fmt.Errorf("raid: device %d holds %d bytes, need %d", i, d.Size(), need)
		}
	}
	a := &Array{
		code:     code,
		elemSize: elemSize,
		stripes:  stripes,
		iodevs:   make([]*blockdev.Instrumented, len(devs)),
		conc:     defaultConcurrency(),
	}
	for i, d := range devs {
		a.iodevs[i] = blockdev.Instrument(d)
	}
	for _, opt := range opts {
		opt(a)
	}
	a.initObservability()
	return a, nil
}

// Code returns the array's erasure code.
func (a *Array) Code() *erasure.Code { return a.code }

// ElemSize returns the element size in bytes.
func (a *Array) ElemSize() int { return a.elemSize }

// Size returns the usable capacity in bytes.
func (a *Array) Size() int64 {
	return a.stripes * int64(a.code.DataElems()) * int64(a.elemSize)
}

// Stats returns a snapshot of the counters. Snapshot returns the full
// observability view (latency histograms, per-disk loads, XOR volume).
func (a *Array) Stats() Stats {
	return Stats{
		Reads:            a.m.reads.Load(),
		Writes:           a.m.writes.Load(),
		DegradedReads:    a.m.degradedReads.Load(),
		FullStripeWrites: a.m.fullStripeWrites.Load(),
		RMWWrites:        a.m.rmwWrites.Load(),
		StripesRebuilt:   a.m.stripesRebuilt.Load(),
		ScrubErrorsFixed: a.m.scrubErrorsFixed.Load(),
		SectorsRepaired:  a.m.sectorsRepaired.Load(),
	}
}

// FailedDisks returns the currently failed columns, sorted.
func (a *Array) FailedDisks() []int {
	f := a.failedSet()
	return f.cols(make([]int, 0, f.count()))
}

// FailDisk marks a column failed (as after an I/O error or pulled drive).
func (a *Array) FailDisk(col int) error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	if col < 0 || col >= a.code.Cols() {
		return fmt.Errorf("raid: disk %d out of range", col)
	}
	a.failDisk(col, 0)
	a.invalidatePlans()
	if a.failedCount() > 2 {
		return ErrTooManyFailures
	}
	return nil
}

// deviceOffset converts (stripeIdx, row) to a device byte offset.
func (a *Array) deviceOffset(stripeIdx int64, row int) int64 {
	return (stripeIdx*int64(a.code.Rows()) + int64(row)) * int64(a.elemSize)
}

// elemIO reads or writes one element through iov, its one-buffer iovec —
// the element-at-a-time access a failed run retries with (settleRun) and
// journal replay uses. A failed column fails with ErrFailed without touching
// the device; a device error settles through elemFault. tc is the span of
// the caller's run, so a remote column's serve span joins the operation's
// trace, a repair's runs parent to it, and a failure event records which
// operation discovered it.
func (a *Array) elemIO(write bool, si int64, co erasure.Coord, iov [][]byte, tc trace.Ctx) error {
	if a.isFailed(co.Col) {
		return blockdev.ErrFailed
	}
	_, err := a.devIO(write, co.Col, iov, a.deviceOffset(si, co.Row), 1, tc.Link(), obs.Mono())
	return a.elemFault(write, si, co, iov[0], err, tc)
}

// elemFault settles one element access that returned err. A latent sector
// error under a read (blockdev.ErrBadSector) triggers transparent
// read-repair: the element is reconstructed from its parity group into buf
// and rewritten in place, without failing the disk. Whole-disk failure is
// reserved for other errors — and a repair that fails — which mark the
// column failed.
func (a *Array) elemFault(write bool, si int64, co erasure.Coord, buf []byte, err error, tc trace.Ctx) error {
	if err == nil {
		return nil
	}
	if !write && errors.Is(err, blockdev.ErrBadSector) && a.repairElem(si, co, buf, tc) == nil {
		return nil
	}
	a.failDisk(co.Col, tc.Link().Trace)
	return err
}

// repairElem reconstructs one unreadable element into dst through the
// reconstruction executor and rewrites it to remap the bad sector. It plans
// as if the whole column were down — conservative (it will not read sibling
// cells on the same disk, which are actually fine) but it reuses the
// memoized degraded plan and never touches the bad cell itself. The fetch
// lands in a scratch of its own, since dst may be a cell of the caller's
// stripe task scratch, and a run that fails under it is not settled: a fault
// during a repair fails the repair — and so the column — rather than
// repairing recursively. parent is the span of the run that met the bad
// sector; the repair's device runs are its children.
func (a *Array) repairElem(si int64, co erasure.Coord, dst []byte, parent trace.Ctx) error {
	wanted := [1]erasure.Coord{co}
	plan, err := a.planDegraded(co.Col, wanted[:])
	if err != nil {
		return err
	}
	sc := a.getScratch()
	defer a.putScratch(sc)
	sc.tc, sc.repair = parent, true
	err = a.fetchFold(si, plan, nil, sc)
	sc.repair = false
	if err != nil {
		return err
	}
	copy(dst, sc.s.Elem(co.Row, co.Col))
	if err := a.writeColumn(si, co.Col, co.Row, dst, sc); err != nil {
		return err
	}
	a.m.sectorsRepaired.Inc()
	return nil
}

// loadStripe reads a full stripe from the surviving disks into sc.s and
// reconstructs any failed columns — each surviving column as one run of the
// run reader. A device that fails silently is discovered here (the read
// errors and marks it), in which case the load restarts without it, up to
// the code's two-failure tolerance.
func (a *Array) loadStripe(stripeIdx int64, sc *opScratch) error {
	for {
		failed := a.failedSet()
		if failed.count() > 2 {
			return ErrTooManyFailures
		}
		if a.readRuns(stripeIdx, a.columnRuns(failed, sc), nil, sc) != nil {
			// The failing read marked its disk; restart the load degraded
			// (or give up via the failure-count check — the failed set only
			// grows, so this terminates).
			continue
		}
		if failed != 0 {
			var down [2]int
			ps := obs.Mono()
			err := a.code.Reconstruct(sc.s, failed.cols(down[:0])...)
			a.m.parityLatency.ObserveNanos(obs.Mono() - ps)
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// storeStripe writes a full encoded stripe — sc.s read through the data
// overlay (nil: all of sc.s) — to every surviving disk, each column as one
// gather write through the best-effort run writer. A disk that fails during
// the store is skipped — its content is moot and the stripe stays
// reconstructable — unless that pushes the array past two failures.
func (a *Array) storeStripe(stripeIdx int64, data [][]byte, sc *opScratch) error {
	a.writeRuns(stripeIdx, a.columnRuns(0, sc), data, sc)
	if a.failedCount() > 2 {
		return ErrTooManyFailures
	}
	return nil
}

// elemRange describes the portion of one data element a byte range touches.
type elemRange struct {
	stripeIdx int64
	coord     erasure.Coord
	start     int // offset within the element
	length    int
	bufOff    int // offset within the caller's buffer
}

// splitBytes maps a byte range of the volume onto element ranges, appending
// to out (pooled by the caller). Ranges are emitted in volume order, so
// their stripe indices are non-decreasing — stripeRuns relies on that.
func (a *Array) splitBytes(off int64, n int, out []elemRange) ([]elemRange, error) {
	// The check never forms off+n, which overflows near the top of int64.
	if size := a.Size(); off < 0 || int64(n) > size || off > size-int64(n) {
		return out, fmt.Errorf("raid: %d bytes at %d outside volume of %d bytes", n, off, size)
	}
	d := int64(a.code.DataElems())
	bufOff := 0
	for n > 0 {
		elemIdx := off / int64(a.elemSize)
		within := int(off % int64(a.elemSize))
		take := a.elemSize - within
		if take > n {
			take = n
		}
		out = append(out, elemRange{
			stripeIdx: elemIdx / d,
			coord:     a.code.DataCoord(int(elemIdx % d)),
			start:     within,
			length:    take,
			bufOff:    bufOff,
		})
		off += int64(take)
		bufOff += take
		n -= take
	}
	return out, nil
}

// ReadAt reads len(p) bytes at offset off, reconstructing data on failed
// disks transparently. Independent stripes are served concurrently (bounded
// by the Concurrency option; the per-stripe locks keep same-stripe work
// serialized). With a single disk down, only the elements of the chosen
// recovery groups are fetched (the erasure engine's degraded plan, the
// paper's low-I/O degraded read); a double failure falls back to
// whole-stripe reconstruction.
func (a *Array) ReadAt(p []byte, off int64) (n int, err error) {
	return a.ReadAtLink(p, off, trace.Link{})
}

// ReadAtLink is ReadAt under an incoming trace parent: the op span (and
// everything beneath it, down to remote-column requests) joins the caller's
// end-to-end trace instead of rooting a new one. The network serve layer
// passes the link a stamped request carried; the zero Link behaves exactly
// like ReadAt.
func (a *Array) ReadAtLink(p []byte, off int64, parent trace.Link) (n int, err error) {
	tc := a.tr.Begin(trace.OpRead, -1, -1, parent)
	start := obs.Mono()
	defer func() {
		a.m.readLatency.ObserveNanos(obs.Mono() - start)
		a.tr.End(tc, int64(n), err != nil)
	}()
	a.opMu.RLock()
	defer a.opMu.RUnlock()
	ob := a.getOpBuf()
	defer a.putOpBuf(ob)
	ranges, err := a.splitBytes(off, len(p), ob.ranges[:0])
	ob.ranges = ranges
	if err != nil {
		return 0, err
	}
	a.m.reads.Inc()

	runs := stripeRuns(ranges, ob.runs[:0])
	ob.runs = runs
	// Serial fast path: constructing the fanOut closure heap-allocates (it
	// escapes into the goroutine path), so loop directly when not fanning out.
	if a.conc <= 1 || len(runs) <= 1 {
		for _, r := range runs {
			if err := a.readStripeRun(r, ranges, p, tc.Link()); err != nil {
				return 0, err
			}
		}
		return len(p), nil
	}
	err = a.fanOut(len(runs), func(i int) error {
		return a.readStripeRun(runs[i], ranges, p, tc.Link())
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// readStripeRun serves one stripe's slice of the call's element ranges under
// that stripe's lock, with its own pooled scratch. The stripe-task span
// lands in sc.tc so everything below parents to it.
func (a *Array) readStripeRun(r stripeRun, ranges []elemRange, p []byte, parent trace.Link) error {
	sc := a.getScratch()
	defer a.putScratch(sc)
	sc.tc = a.tr.Begin(trace.OpReadStripe, -1, r.si, parent)
	mu := a.lockStripe(r.si)
	mu.Lock()
	err := a.readStripeRanges(r.si, ranges[r.lo:r.hi], p, sc)
	a.endDegraded(sc)
	mu.Unlock()
	a.tr.End(sc.tc, rangeBytes(ranges[r.lo:r.hi], sc.tc), err != nil)
	return err
}

// rangeBytes totals the byte span of a stripe task for its trace span; it
// costs nothing when tracing is off.
func rangeBytes(ers []elemRange, tc trace.Ctx) int64 {
	if !tc.Active() {
		return 0
	}
	var n int64
	for _, er := range ers {
		n += int64(er.length)
	}
	return n
}

// degradedRead is a stripe task's degraded-read record — span, flight-recorder
// event, counter and latency sample — begun when the task first needs a lost
// cell and ended once the wanted bytes are fetched (or with the task, on
// error), so a task counts once however many times it re-plans (planned,
// then whole-stripe) on the way. start is an obs.Mono reading; a zero
// start means the task has not gone degraded.
type degradedRead struct {
	tc    trace.Ctx
	start int64
	bytes int64
}

// beginDegraded opens the task's degraded record — cells wanted elements,
// column down failed (-1: more than one) — unless the task already has one,
// which it keeps.
func (a *Array) beginDegraded(si int64, down, cells int, sc *opScratch) {
	if sc.deg.start != 0 {
		return
	}
	tc := a.tr.Begin(trace.OpDegradedRead, int32(down), si, sc.tc.Link())
	sc.deg = degradedRead{tc: tc, start: obs.Mono(), bytes: int64(cells) * int64(a.elemSize)}
	a.ev.Record(obs.EvDegradedRead, int32(down), si, tc.Link().Trace, 0)
	a.m.degradedReads.Inc()
}

// endDegraded closes the task's degraded record, if it opened one.
func (a *Array) endDegraded(sc *opScratch) {
	if sc.deg.start == 0 {
		return
	}
	a.m.degradedReadLatency.ObserveNanos(obs.Mono() - sc.deg.start)
	a.tr.End(sc.deg.tc, sc.deg.bytes, false)
	sc.deg = degradedRead{}
}

// WriteAt writes len(p) bytes at offset off. Whole stripes are encoded and
// written in one pass; partial updates patch or re-encode each parity group
// they touch, per the stripe's write plan (see writeplan.go); writes while
// disks are failed take a degraded full-stripe path so parity stays
// consistent for the eventual rebuild.
func (a *Array) WriteAt(p []byte, off int64) (n int, err error) {
	return a.WriteAtLink(p, off, trace.Link{})
}

// WriteAtLink is WriteAt under an incoming trace parent; see ReadAtLink.
func (a *Array) WriteAtLink(p []byte, off int64, parent trace.Link) (n int, err error) {
	tc := a.tr.Begin(trace.OpWrite, -1, -1, parent)
	start := obs.Mono()
	defer func() {
		a.m.writeLatency.ObserveNanos(obs.Mono() - start)
		a.tr.End(tc, int64(n), err != nil)
	}()
	a.opMu.RLock()
	defer a.opMu.RUnlock()
	ob := a.getOpBuf()
	defer a.putOpBuf(ob)
	ranges, err := a.splitBytes(off, len(p), ob.ranges[:0])
	ob.ranges = ranges
	if err != nil {
		return 0, err
	}
	a.m.writes.Inc()

	// Independent stripes proceed concurrently; the journal serializes its
	// own ring internally, and intent/commit bracket each stripe's mutation
	// exactly as on the serial path.
	runs := stripeRuns(ranges, ob.runs[:0])
	ob.runs = runs
	// Serial fast path, as in ReadAt: skip the heap-allocating closure.
	if a.conc <= 1 || len(runs) <= 1 {
		for _, r := range runs {
			if err := a.writeStripeRun(r, ranges, p, tc.Link()); err != nil {
				return 0, err
			}
		}
		return len(p), nil
	}
	err = a.fanOut(len(runs), func(i int) error {
		return a.writeStripeRun(runs[i], ranges, p, tc.Link())
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// Flush is the array's durability barrier — the blockserve.Flusher a
// network FLUSH reaches. Every write has reached its devices before WriteAt
// returns, so there is nothing to push out; Flush does not yet sync anything
// (a file column's dirty pages stay in the page cache) and returns nil.
func (a *Array) Flush() error { return nil }

// writeStripeRun applies one stripe's slice of the call's element ranges
// under that stripe's lock, bracketed by journal intent/commit records when a
// journal is attached.
func (a *Array) writeStripeRun(r stripeRun, ranges []elemRange, p []byte, parent trace.Link) error {
	sc := a.getScratch()
	defer a.putScratch(sc)
	sc.tc = a.tr.Begin(trace.OpWriteStripe, -1, r.si, parent)
	werr := a.writeStripeRunLocked(r, ranges, p, sc)
	a.tr.End(sc.tc, rangeBytes(ranges[r.lo:r.hi], sc.tc), werr != nil)
	return werr
}

func (a *Array) writeStripeRunLocked(r stripeRun, ranges []elemRange, p []byte, sc *opScratch) error {
	mu := a.lockStripe(r.si)
	mu.Lock()
	defer mu.Unlock()
	var seq uint64
	var jerr error
	if a.jnl != nil {
		if seq, jerr = a.jnl.log(recIntent, 0, r.si); jerr != nil {
			return jerr
		}
	}
	werr := a.writeStripeRanges(r.si, ranges[r.lo:r.hi], p, sc)
	if werr == nil && a.jnl != nil {
		_, werr = a.jnl.log(recCommit, seq, r.si)
	}
	return werr
}

// writeStripeRanges applies one stripe's element ranges. On a healthy array
// it runs the write plan (see writeplan.go): each parity group the write
// touches is patched or re-encoded, by whichever plan reads fewer cells, and
// only the written data and the touched parities are written. A
// full-stripe write is the plan with nothing to read: it encodes parity from
// the caller's views and commits every column as one gather write, so the
// data bytes never transit stripe memory.
//
// A degraded array (including failures discovered mid-write) takes the
// load-reconstruct-encode-store path. The plan can fail recoverably only
// while gathering, before any device is mutated, so falling back is safe.
func (a *Array) writeStripeRanges(si int64, ers []elemRange, p []byte, sc *opScratch) error {
	if a.failedCount() == 0 {
		a.planWrite(ers, sc)
		err := a.writePlanned(si, ers, p, sc)
		if err == nil {
			return nil
		}
		if a.failedCount() > 2 {
			return err
		}
		// A disk failed mid-write; redo the stripe degraded.
	}
	if err := a.loadStripe(si, sc); err != nil {
		return err
	}
	data := a.overlay(ers, p, sc)
	defer clear(data)
	ps := obs.Mono()
	a.code.EncodeFrom(sc.s, data)
	a.m.parityLatency.ObserveNanos(obs.Mono() - ps)
	if err := a.storeStripe(si, data, sc); err != nil {
		return err
	}
	a.m.fullStripeWrites.Inc()
	return nil
}

// Rebuild reconstructs the contents of a previously failed column onto its
// (replaced) device and clears the failure mark. With a single failure it
// follows the read-minimal hybrid recovery plan (paper §III-D: ~25% fewer
// reads than rebuilding through one parity kind); a second concurrent
// failure falls back to whole-stripe reconstruction.
func (a *Array) Rebuild(col int) (err error) {
	tcOp := a.tr.Begin(trace.OpRebuild, int32(col), -1, trace.Link{})
	defer func() { a.tr.End(tcOp, 0, err != nil) }()
	a.opMu.Lock()
	defer a.opMu.Unlock()
	if col < 0 || col >= a.code.Cols() {
		return fmt.Errorf("raid: disk %d out of range", col)
	}
	if !a.isFailed(col) {
		return fmt.Errorf("raid: disk %d is not failed", col)
	}
	if a.failedCount() > 2 {
		return ErrTooManyFailures
	}
	rebuildStart := obs.Mono()
	a.ev.Record(obs.EvRebuildStart, int32(col), -1, tcOp.Link().Trace, 0)
	defer func() {
		if err == nil {
			a.ev.Record(obs.EvRebuildEnd, int32(col), -1, tcOp.Link().Trace, obs.Mono()-rebuildStart)
		}
	}()
	var plan *erasure.DegradedPlan
	if a.failedCount() == 1 {
		plan = a.rebuildPlan(col)
	}
	err = a.fanOut(int(a.stripes), func(i int) error {
		return a.rebuildStripe(int64(i), col, plan, tcOp.Link())
	})
	if err != nil {
		return err
	}
	a.clearFailed(col)
	a.invalidatePlans()
	return nil
}

// rebuildPlan returns the plan every stripe of column col is rebuilt with
// while col is the one failed column, or nil when no plan can source every
// cell. It prices two plans in cells fetched and keeps the cheaper,
// recovery.Optimize's on a tie: Optimize's hybrid group choice (paper
// §III-D), which rebuilds each data row through its chosen group and
// re-encodes each parity row through its own, and the degraded planner's
// plan for the whole column, which may also rebuild a parity cell through a
// group it is a member of and so reads less on codes whose parity groups
// span the stripe (RDP's diagonal parity column, EVENODD).
func (a *Array) rebuildPlan(col int) *erasure.DegradedPlan {
	var best *erasure.DegradedPlan
	if opt, err := recovery.Optimize(a.code, col); err == nil {
		if pl, err := opt.Degraded(a.code); err == nil {
			best = &pl
		}
	}
	if pl, err := a.code.PlanDegraded(col, a.code.ColumnCells(col), nil); err == nil &&
		(best == nil || len(pl.Fetch) < len(best.Fetch)) {
		best = &pl
	}
	return best
}

// rebuildStripe restores column col of one stripe: through the
// reconstruction executor when a plan is available and the failure count
// still permits it, by whole-stripe reconstruction otherwise (or when the
// planned fetch discovers a new failure). Either way the column goes out as
// one device call.
func (a *Array) rebuildStripe(si int64, col int, plan *erasure.DegradedPlan, parent trace.Link) (err error) {
	sc := a.getScratch()
	defer a.putScratch(sc)
	sc.tc = a.tr.Begin(trace.OpRebuildStripe, int32(col), si, parent)
	stripeStart := obs.Mono()
	defer func() {
		a.tr.End(sc.tc, 0, err != nil)
		if err == nil {
			a.m.stripesRebuilt.Inc()
			a.m.rebuildLatency.ObserveNanos(obs.Mono() - stripeStart)
		}
	}()
	if plan == nil || a.failedCount() != 1 || a.fetchFold(si, plan, nil, sc) != nil {
		if err := a.loadStripe(si, sc); err != nil {
			return err
		}
	}
	rows := a.code.Rows()
	if err := a.writeColumn(si, col, 0, sc.s.ColRange(col, 0, rows), sc); err != nil {
		return fmt.Errorf("raid: rebuilding disk %d stripe %d: %w", col, si, err)
	}
	return nil
}

// Scrub verifies the parity of every stripe; inconsistent stripes are
// re-encoded from their data (the data is trusted, as a real scrubber does
// absent checksums). It returns how many stripes were repaired.
func (a *Array) Scrub() (fixedN int64, err error) {
	tcOp := a.tr.Begin(trace.OpScrub, -1, -1, trace.Link{})
	defer func() { a.tr.End(tcOp, 0, err != nil) }()
	a.opMu.Lock()
	defer a.opMu.Unlock()
	if n := a.failedCount(); n > 0 {
		return 0, fmt.Errorf("raid: scrub requires a healthy array (%d disks failed)", n)
	}
	scrubStart := obs.Mono()
	a.ev.Record(obs.EvScrubStart, -1, -1, tcOp.Link().Trace, 0)
	var fixed atomic.Int64
	err = a.fanOut(int(a.stripes), func(i int) error {
		n, err := a.scrubStripeTask(int64(i), tcOp.Link())
		fixed.Add(n)
		return err
	})
	if err == nil {
		// Stripe carries the fixed-stripe tally (scrub is not bound to one
		// stripe), Aux the duration — both fit the generic event shape.
		a.ev.Record(obs.EvScrubEnd, -1, fixed.Load(), tcOp.Link().Trace, obs.Mono()-scrubStart)
	}
	return fixed.Load(), err
}

// scrubStripeTask verifies (and if needed repairs) one stripe, returning 1
// when it had to be re-encoded.
func (a *Array) scrubStripeTask(si int64, parent trace.Link) (fixed int64, err error) {
	sc := a.getScratch()
	defer a.putScratch(sc)
	sc.tc = a.tr.Begin(trace.OpScrubStripe, -1, si, parent)
	defer func() { a.tr.End(sc.tc, 0, err != nil) }()
	stripeStart := obs.Mono()
	if err := a.loadStripe(si, sc); err != nil {
		return 0, err
	}
	if a.code.Verify(sc.s) {
		a.m.scrubLatency.ObserveNanos(obs.Mono() - stripeStart)
		return 0, nil
	}
	ps := obs.Mono()
	a.code.Encode(sc.s)
	a.m.parityLatency.ObserveNanos(obs.Mono() - ps)
	if err := a.storeStripe(si, nil, sc); err != nil {
		return 0, err
	}
	a.m.scrubErrorsFixed.Inc()
	a.m.scrubLatency.ObserveNanos(obs.Mono() - stripeStart)
	return 1, nil
}
