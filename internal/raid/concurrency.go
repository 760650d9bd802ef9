package raid

// This file holds the array's concurrency and buffer-reuse machinery:
//
//   - the Concurrency option and the bounded fanOut helper the data path
//     uses for stripe pipelining (ReadAt/WriteAt/Rebuild/Scrub) and for
//     per-column device fan-out;
//   - column coalescing: a stripe's rows are contiguous per device (see
//     deviceOffset), so a run of same-column cells is read or written as one
//     physical device call, which devIO tallies as the element operations
//     it replaces;
//     callers mark the cells they want and markedRuns (writeplan.go), the one
//     run builder, lists the runs;
//   - the data path's one run reader and one run writer (readRuns,
//     writeRuns): stage the runs' iovecs, issue them, settle their errors;
//     the reconstruction executor's reads may borrow a run from a memory
//     column instead of copying it (loans, below);
//   - the sync.Pool-backed per-operation scratch (stripe buffer, mark
//     bitmaps, coordinate lists) that makes the steady-state data path
//     allocation-free.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"dcode/internal/blockdev"
	"dcode/internal/erasure"
	"dcode/internal/obs"
	"dcode/internal/stripe"
	"dcode/internal/trace"
)

// Option configures an Array at construction time.
type Option func(*Array)

// WithConcurrency bounds the number of goroutines the array uses at each
// fan-out point: independent stripes of one ReadAt/WriteAt/Rebuild/Scrub,
// and the per-column device calls within one stripe. n = 1 makes the array
// fully serial (useful for deterministic debugging and allocation tests);
// n ≤ 0 or omitting the option uses GOMAXPROCS.
func WithConcurrency(n int) Option {
	return func(a *Array) {
		if n > 0 {
			a.conc = n
		}
	}
}

// Concurrency returns the array's fan-out bound.
func (a *Array) Concurrency() int { return a.conc }

// fanOut runs fn(i) for every i in [0, n). With a bound of one — or a single
// task — it runs inline with zero goroutine or allocation cost. Otherwise up
// to min(bound, n) workers pull indices from an atomic cursor. The error of
// the lowest-numbered failed task is returned, approximating serial error
// semantics; after the first failure workers stop pulling new indices, but
// tasks already started run to completion (they may hold device state half
// written — callers on best-effort paths return nil from fn instead).
func (a *Array) fanOut(n int, fn func(int) error) error {
	workers := a.conc
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		errIdx   = n
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					stopped.Store(true)
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// cellRun is a maximal run of row-adjacent cells on one column — the unit of
// coalesced device I/O.
type cellRun struct {
	col, row, n int
}

// vecRun is one staged cellRun: rows [row, row+n) of column col, served by
// the iovec list sc.vecbufs[lo:hi] — one buffer per cell, or a single
// contiguous one when the whole run lives in stripe memory (see stageRuns).
// lend marks a stripe-memory run of a read that may borrow its bytes from
// the device instead (issueRun); view is the medium it was lent, until
// takeLoans moves it into the stripe.
type vecRun struct {
	col, row, n int
	lo, hi      int
	lend        bool
	view        []byte
}

// readRuns is the data path's one run reader: it reads coalesced runs of
// stripe si into their cells — the caller's buffer for a data cell the
// overlay holds, sc.s otherwise — each run as one scatter read, and returns
// the error of the lowest-indexed run it could not serve. A bad sector is
// repaired in place on the way (settleRun), so an error means the run's
// column is down: failed before the read, or marked failed by it — or, under
// a read-repair, a second bad sector (issueRun). With lend, a run bound for
// stripe memory on a column that lends is borrowed rather than copied, and
// the loans are in sc.s's borrowed cells and sc.loans on return, error or
// not (takeLoans).
func (a *Array) readRuns(si int64, runs []cellRun, data [][]byte, lend bool, sc *opScratch) error {
	vruns := a.stageRuns(runs, data, lend, sc)
	err := a.issueRuns(false, si, vruns, sc)
	clear(sc.vecbufs) // drop the user-buffer references before the scratch is pooled
	if sc.lendable {
		a.takeLoans(vruns, sc)
	}
	return err
}

// writeRuns is the data path's one best-effort run writer: each run goes out
// as one gather write from its cells, read through the overlay as in
// readRuns. A column that fails is marked and skipped.
func (a *Array) writeRuns(si int64, runs []cellRun, data [][]byte, sc *opScratch) {
	_ = a.issueRuns(true, si, a.stageRuns(runs, data, false, sc), sc)
	clear(sc.vecbufs)
}

// stageRuns builds the iovec lists of a set of coalesced runs in sc.vecbufs
// and the matching vecRuns in sc.vruns. A run holding a cell of the data
// overlay gets one buffer per cell, resolved through erasure's CellFrom (the
// caller's buffer for a data cell the overlay holds, sc.s otherwise); a run
// living wholly in stripe memory gets its contiguous ColRange as one buffer,
// so a device without native scatter/gather still moves it in one call, and
// under lend it may be borrowed instead (sc.lendable says whether any run
// may). The caller clears sc.vecbufs once the runs are done.
func (a *Array) stageRuns(runs []cellRun, data [][]byte, lend bool, sc *opScratch) []vecRun {
	bufs := sc.vecbufs[:0]
	vruns := sc.vruns[:0]
	sc.lendable = false
	for _, r := range runs {
		lo := len(bufs)
		inStripe := !a.inOverlay(r, data)
		if inStripe {
			bufs = append(bufs, sc.s.ColRange(r.col, r.row, r.n))
			sc.lendable = sc.lendable || lend
		} else {
			for k := 0; k < r.n; k++ {
				bufs = append(bufs, a.code.CellFrom(sc.s, data, erasure.Coord{Row: r.row + k, Col: r.col}))
			}
		}
		vruns = append(vruns, vecRun{col: r.col, row: r.row, n: r.n, lo: lo, hi: len(bufs), lend: lend && inStripe})
	}
	sc.vecbufs = bufs
	sc.vruns = vruns
	return vruns
}

// inOverlay reports whether any cell of run r is a data cell the overlay
// holds.
func (a *Array) inOverlay(r cellRun, data [][]byte) bool {
	if data == nil {
		return false
	}
	for k := 0; k < r.n; k++ {
		if di := a.code.DataIndex(r.row+k, r.col); di >= 0 && data[di] != nil {
			return true
		}
	}
	return false
}

// issueRuns is where a stripe task's staged runs decide how they reach their
// devices: inline when there is a single run or no fan-out bound, fanned out
// otherwise, so a slow column's calls overlap its siblings'. It
// returns the error of the lowest-indexed failed read run (fanOut's rule;
// inline, the first failure stops the loop); writes are best effort, so every
// run is attempted and the result is nil.
//
// Inline, the runs share one obs.Mono chain: the clock is read once before
// the first run, and each run's end — the one read its device call takes
// after returning — is the next run's start, so a stage of k runs costs k+1
// clock reads, not 2k. A fanned-out run reads its own start.
func (a *Array) issueRuns(write bool, si int64, vruns []vecRun, sc *opScratch) error {
	if a.conc <= 1 || len(vruns) <= 1 {
		// Loop directly: the fanOut closure escapes into its goroutine path,
		// so constructing it would heap-allocate on every call.
		t := obs.Mono()
		for i := range vruns {
			var err error
			if t, err = a.issueRun(write, si, &vruns[i], sc, t); err != nil {
				return err
			}
		}
		return nil
	}
	return a.fanOut(len(vruns), func(i int) error {
		_, err := a.issueRun(write, si, &vruns[i], sc, obs.Mono())
		return err
	})
}

// issueRun issues one staged run under its own device span: one vectored
// call standing for the run's n element accesses — or, for a lend run on a
// column that lends, one lend of the run's bytes into r.view, accounted as
// that call — settled by settleRun (a failed lend retries by copy, as a
// failed vectored read does) — unless the scratch serves a read-repair,
// which does not repair recursively: there a bad sector is the repair's
// failure, and any other error marks the run's column for the repair to plan
// around. A run on a failed column fails with ErrFailed without touching the
// device. start is the obs.Mono reading the device call's latency runs from;
// the returned stamp is where the run ended — the device call's own end, or
// a fresh reading after a retry, whose element calls time themselves.
func (a *Array) issueRun(write bool, si int64, r *vecRun, sc *opScratch, start int64) (int64, error) {
	tc := a.tr.Begin(devOp(write), int32(r.col), si, sc.tc.Link())
	err := blockdev.ErrFailed
	end := start
	if !a.isFailed(r.col) {
		bufs := sc.vecbufs[r.lo:r.hi]
		off := a.deviceOffset(si, r.row)
		r.view, end, err = a.devIO(write, r.lend, r.col, bufs, off, int64(r.n), tc.Link(), start)
		switch {
		case err == nil:
		case !sc.repair:
			err = a.settleRun(write, si, r, bufs, err, tc)
			end = obs.Mono()
		case !errors.Is(err, blockdev.ErrBadSector):
			a.failDisk(r.col, tc.Link().Trace)
		}
	}
	return end, a.endRun(write, r, tc, err)
}

// endRun closes a run's device span — failed if the run failed — and returns
// what the run reports to issueRuns: its error for a read, nil for a
// best-effort write.
func (a *Array) endRun(write bool, r *vecRun, tc trace.Ctx, err error) error {
	a.tr.End(tc, int64(r.n*a.elemSize), err != nil)
	if write {
		return nil
	}
	return err
}

// settleRun finishes a run whose vectored call returned err. A single-cell
// run settles that one error directly (elemFault: a bad sector under a read
// is repaired, anything else marks the column failed), so the device is
// never asked twice. A longer run retries element by element from its own
// iovec list through elemIO: a read stops at the first cell it cannot serve
// and returns nil if it served them all; a write lands every cell it can and
// returns err, the gather's own failure. A one-buffer run retries through
// its iovec slot re-pointed at each cell in turn, so the retry does not
// allocate; the list is spent afterwards.
func (a *Array) settleRun(write bool, si int64, r *vecRun, bufs [][]byte, err error, tc trace.Ctx) error {
	if err == nil {
		return nil
	}
	if r.n == 1 {
		return a.elemFault(write, si, erasure.Coord{Row: r.row, Col: r.col}, bufs[0], err, tc)
	}
	whole := bufs[0]
	for k := 0; k < r.n; k++ {
		iov := bufs[k : k+1]
		if len(bufs) == 1 {
			bufs[0] = whole[k*a.elemSize : (k+1)*a.elemSize]
			iov = bufs
		}
		if eerr := a.elemIO(write, si, erasure.Coord{Row: r.row + k, Col: r.col}, iov, tc); eerr != nil && !write {
			return eerr
		}
	}
	if write {
		return err
	}
	return nil
}

// Loans. The reconstruction executor (fetchFold) folds the cells it fetches
// and, for a healthy or degraded read, copies out partial ranges; it never
// writes them. So a run it reads into stripe memory from a bare MemDevice
// column is borrowed — a view of the medium (blockdev.MemDevice.Lend) —
// rather than copied, and the fold reads the cells there through sc.s's
// borrowed views (stripe.Borrow). Every other read copies: runs that land in
// the caller's buffer, and every read on the write path, whose stripe cells
// are patched or re-encoded in place. Loans are returned when the scratch is
// pooled (putScratch), or at once when the fetch fails and the scratch is
// reused by a re-plan or a whole-stripe load.

// takeLoans moves the views issueRun borrowed for vruns into sc.s's borrowed
// cells, recording each run's column in sc.loans for returnLoans. It runs
// after the runs are issued, so fanned-out runs never share a list.
func (a *Array) takeLoans(vruns []vecRun, sc *opScratch) {
	for i := range vruns {
		r := &vruns[i]
		if r.view != nil {
			sc.s.Borrow(r.col, r.row, r.view)
			sc.loans = append(sc.loans, r.col)
			r.view = nil
		}
	}
}

// returnLoans returns every loan the scratch holds and drops the borrowed
// views, so its stripe reads its own memory again.
func (a *Array) returnLoans(sc *opScratch) {
	for _, col := range sc.loans {
		a.columns[col].mem.Return()
	}
	sc.loans = sc.loans[:0]
	sc.s.Unborrow()
}

// devOp is the span kind of a device run in one direction.
func devOp(write bool) trace.Op {
	if write {
		return trace.OpDevWrite
	}
	return trace.OpDevRead
}

// devIO is the array's one device call: a vectored read or write of column
// col at off — or, when lend is set and the column is a bare MemDevice, a
// lend of len(bufs[0]) bytes returned as view instead of copied — carrying
// the span link l when it is live and the device threads links. It tallies
// the call once, on the column and in the load window: a success counts ops
// element accesses (a coalesced run the accesses it replaced), a failure one
// access and one error, since the element-wise path stops at its first
// failing element; the bytes count what moved, and a lend counts as the read
// it replaces. The latency runs from the obs.Mono reading start; the call's
// one clock read is taken after the device returns and handed back as end,
// which a caller issuing runs back to back passes on as the next start.
func (a *Array) devIO(write, lend bool, col int, bufs [][]byte, off, ops int64, l trace.Link, start int64) (view []byte, end int64, err error) {
	c := a.columns[col]
	link := c.linked != nil && l.Trace != 0
	var n int
	switch {
	case write && link:
		n, err = c.linked.WriteVecAtLink(bufs, off, l)
	case write:
		n, err = c.dev.WriteVecAt(bufs, off)
	case lend && c.mem != nil:
		view, err = c.mem.Lend(len(bufs[0]), off)
		n = len(view)
	case link:
		n, err = c.linked.ReadVecAtLink(bufs, off, l)
	default:
		n, err = c.dev.ReadVecAt(bufs, off)
	}
	end = obs.Mono()
	if err != nil {
		ops = 1
	}
	m := &c.m
	if write {
		m.WriteLatency.ObserveNanos(end - start)
		m.Writes.Add(ops)
		m.BytesWritten.Add(int64(n))
		if err != nil {
			m.WriteErrors.Inc()
		}
	} else {
		m.ReadLatency.ObserveNanos(end - start)
		m.Reads.Add(ops)
		m.BytesRead.Add(int64(n))
		if err != nil {
			m.ReadErrors.Inc()
		}
	}
	a.window.Record(col, write, ops, end)
	return view, end, err
}

// columnRuns lists stripe-long runs of every column not in skip, in sc.runs —
// the shape of a whole-stripe load or store.
func (a *Array) columnRuns(skip failSet, sc *opScratch) []cellRun {
	runs := sc.runs[:0]
	for c := 0; c < a.code.Cols(); c++ {
		if !skip.has(c) {
			runs = append(runs, cellRun{col: c, row: 0, n: a.code.Rows()})
		}
	}
	sc.runs = runs
	return runs
}

// writeColumn writes buf — whole cells from row down — to column col of
// stripe si as a single device call, bypassing the failure mark: Rebuild
// fills the replaced device, which is still marked failed, with a stripe's
// whole column, and read-repair rewrites one cell. Unlike the best-effort
// data-path writes, both must land every byte, so errors propagate.
func (a *Array) writeColumn(si int64, col, row int, buf []byte, sc *opScratch) error {
	tc := a.tr.Begin(trace.OpDevWrite, int32(col), si, sc.tc.Link())
	sc.vecbufs = append(sc.vecbufs[:0], buf)
	_, _, err := a.devIO(true, false, col, sc.vecbufs, a.deviceOffset(si, row), int64(len(buf)/a.elemSize), tc.Link(), obs.Mono())
	clear(sc.vecbufs)
	a.tr.End(tc, int64(len(buf)), err != nil)
	return err
}

// opScratch is the pooled per-stripe-task scratch: one stripe buffer used as
// the element arena, mark bitmaps (consumers clear the ones they use before
// use — pooled state is stale by design), coordinate and run lists, and an
// XOR gather list. One opScratch serves one stripe task at a time; the
// per-column goroutines under it only touch disjoint cells of sc.s and the
// shared run list built before the fan-out.
type opScratch struct {
	s        *stripe.Stripe
	seen     []bool // rows×cols cell marks
	part     []bool // rows×cols partial-write marks
	rd       []bool // rows×cols marks of the cells a write plan reads
	erd      []bool // rows×cols marks of the cells re-encode-all would read
	gseen    []bool // per-group marks
	genc     []bool // per-group marks of the groups a write plan re-encodes
	coords   []erasure.Coord
	srcs     [][]byte
	runs     []cellRun
	vruns    []vecRun     // staged device runs (stageRuns)
	vecbufs  [][]byte     // their iovec assembly (cleared after use)
	loans    []int        // columns of the runs sc.s borrows, one per loan (takeLoans)
	data     [][]byte     // the data overlay: user-buffer views by data index (cleared after use)
	tc       trace.Ctx    // the stripe task's span; set at every task start (pooled state is stale)
	deg      degradedRead // the read task's degraded record; zero between tasks (endDegraded)
	repair   bool         // the scratch serves a read-repair: failed runs are not repaired (issueRun)
	lendable bool         // the staged runs include a lend run (stageRuns)
}

func (a *Array) getScratch() *opScratch {
	if v := a.scratch.Get(); v != nil {
		return v.(*opScratch)
	}
	cells := a.code.Rows() * a.code.Cols()
	return &opScratch{
		s:     a.code.NewStripe(a.elemSize),
		seen:  make([]bool, cells),
		part:  make([]bool, cells),
		rd:    make([]bool, cells),
		erd:   make([]bool, cells),
		gseen: make([]bool, len(a.code.Groups())),
		genc:  make([]bool, len(a.code.Groups())),
		data:  make([][]byte, a.code.DataElems()),
		// A stripe task stages at most one run and one iovec per cell, so the
		// staging lists never grow after the scratch is made.
		vruns:   make([]vecRun, 0, cells),
		vecbufs: make([][]byte, 0, cells),
		loans:   make([]int, 0, cells),
	}
}

// putScratch pools sc, returning its loans first: the stripe task is done
// with the bytes they lend.
func (a *Array) putScratch(sc *opScratch) {
	if len(sc.loans) != 0 {
		a.returnLoans(sc)
	}
	a.scratch.Put(sc)
}

// opBuf is the pooled call-level state of ReadAt/WriteAt: the element ranges
// of the byte range and their grouping into per-stripe runs.
type opBuf struct {
	ranges []elemRange
	runs   []stripeRun
}

func (a *Array) getOpBuf() *opBuf {
	if v := a.opBufs.Get(); v != nil {
		return v.(*opBuf)
	}
	return &opBuf{}
}

func (a *Array) putOpBuf(ob *opBuf) { a.opBufs.Put(ob) }

// stripeRun says ranges[lo:hi] all belong to stripe si; splitBytes emits
// ranges with non-decreasing stripe indices, so grouping is a linear scan.
type stripeRun struct {
	si     int64
	lo, hi int
}

func stripeRuns(ranges []elemRange, out []stripeRun) []stripeRun {
	for k := 0; k < len(ranges); {
		j := k + 1
		for j < len(ranges) && ranges[j].stripeIdx == ranges[k].stripeIdx {
			j++
		}
		out = append(out, stripeRun{si: ranges[k].stripeIdx, lo: k, hi: j})
		k = j
	}
	return out
}

func defaultConcurrency() int { return runtime.GOMAXPROCS(0) }
