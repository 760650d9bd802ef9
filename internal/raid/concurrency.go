package raid

// This file holds the array's concurrency and buffer-reuse machinery:
//
//   - the Concurrency option and the bounded fanOut helper the data path
//     uses for stripe pipelining (ReadAt/WriteAt/Rebuild/Scrub) and for
//     per-column device fan-out;
//   - column coalescing: a stripe's rows are contiguous per device (see
//     deviceOffset), so a run of same-column cells is read or written as one
//     physical device call, tallied through Instrumented.ReadAtN/WriteAtN as
//     the element operations it replaces;
//   - the sync.Pool-backed per-operation scratch (stripe buffer, mark
//     bitmaps, coordinate lists) that makes the steady-state data path
//     allocation-free.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dcode/internal/blockdev"
	"dcode/internal/erasure"
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

// coalesce sorts cells by (column, row) in place and splits them into
// contiguous same-column runs, reusing sc.runs. Only strictly adjacent rows
// join a run: spanning a gap would move bytes no caller asked for, skewing
// the byte tallies and touching unrelated bad sectors.
func coalesce(cells []erasure.Coord, sc *opScratch) []cellRun {
	slices.SortFunc(cells, func(x, y erasure.Coord) int {
		if x.Col != y.Col {
			return x.Col - y.Col
		}
		return x.Row - y.Row
	})
	runs := sc.runs[:0]
	for k := 0; k < len(cells); {
		j := k + 1
		for j < len(cells) && cells[j].Col == cells[k].Col && cells[j].Row == cells[j-1].Row+1 {
			j++
		}
		runs = append(runs, cellRun{col: cells[k].Col, row: cells[k].Row, n: j - k})
		k = j
	}
	sc.runs = runs
	return runs
}

// readCells reads the listed (distinct) cells of stripe si into s, one
// goroutine per coalesced run, each run as a single device call. With a
// cache attached it first serves hits from memory — those cells cost no
// device I/O at all — then reads only the misses, inserting them on the way
// back so the working set converges to the cache. It returns how many cells
// were served from the cache.
func (a *Array) readCells(si int64, cells []erasure.Coord, s *stripe.Stripe, sc *opScratch) (int, error) {
	hits := 0
	if a.cache != nil {
		miss := sc.miss[:0]
		for _, co := range cells {
			if a.cache.Get(a.cacheKey(si, co), s.Elem(co.Row, co.Col)) {
				hits++
			} else {
				miss = append(miss, co)
			}
		}
		sc.miss = miss
		cells = miss
	}
	runs := coalesce(cells, sc)
	// With the async engine on, the whole batch of runs is staged and kicked
	// as one submission instead of fanning out per run.
	if a.aio != nil {
		if err := a.readRunsAsync(si, runs, s, sc); err != nil {
			return hits, err
		}
		a.cacheFill(si, cells, s, nil)
		return hits, nil
	}
	// The serial case loops directly: the fanOut closure escapes into its
	// goroutine path, so constructing it would heap-allocate on every call.
	if a.conc <= 1 || len(runs) <= 1 {
		for _, r := range runs {
			if err := a.readRun(si, r, s, sc.tc.Link()); err != nil {
				return hits, err
			}
		}
		a.cacheFill(si, cells, s, nil)
		return hits, nil
	}
	if err := a.fanOut(len(runs), func(i int) error {
		return a.readRun(si, runs[i], s, sc.tc.Link())
	}); err != nil {
		return hits, err
	}
	a.cacheFill(si, cells, s, nil)
	return hits, nil
}

// cacheFill inserts the listed cells' content from s read through the data
// overlay: populate-on-miss after a fully successful read (so a partial
// failure, which the caller retries degraded, caches nothing stale), and
// write-through of a commit set.
func (a *Array) cacheFill(si int64, cells []erasure.Coord, s *stripe.Stripe, data [][]byte) {
	if a.cache == nil {
		return
	}
	for _, co := range cells {
		a.cache.Put(a.cacheKey(si, co), a.code.CellFrom(s, data, co))
	}
}

// readRun reads one coalesced run into s. A single-cell run goes through
// readElem directly, keeping its transparent bad-sector read-repair. A
// longer run lands in stripe memory directly — the column-major layout makes
// the run one contiguous ColRange, so one physical ReadAtN fills the cells
// with no staging copy. If that fails — a latent sector error anywhere in
// the run, or the device dying — it falls back to element-at-a-time
// readElem, which repairs bad sectors in place and marks the disk failed on
// real errors, exactly like the uncoalesced path.
func (a *Array) readRun(si int64, run cellRun, s *stripe.Stripe, parent trace.Link) error {
	tc := a.tr.Begin(trace.OpDevRead, int32(run.col), si, parent)
	err := a.readRunDev(si, run, s, tc.Link())
	a.tr.End(tc, int64(run.n*a.elemSize), err != nil)
	return err
}

func (a *Array) readRunDev(si int64, run cellRun, s *stripe.Stripe, l trace.Link) error {
	if run.n == 1 {
		co := erasure.Coord{Row: run.row, Col: run.col}
		return a.readElemL(si, co, s.Elem(run.row, run.col), l)
	}
	if a.isFailed(run.col) {
		return blockdev.ErrFailed
	}
	dst := s.ColRange(run.col, run.row, run.n)
	_, err := a.iodevs[run.col].ReadAtNLink(dst, a.deviceOffset(si, run.row), int64(run.n), l)
	if err == nil {
		return nil
	}
	for k := 0; k < run.n; k++ {
		co := erasure.Coord{Row: run.row + k, Col: run.col}
		if err := a.readElemL(si, co, s.Elem(co.Row, co.Col), l); err != nil {
			return err
		}
	}
	return nil
}

// writeCellsBestEffort writes the listed (distinct) cells of stripe si, each
// read through the data overlay — the caller's bytes for a whole written
// element, sc.s for everything else — as one gather write per coalesced run.
// Like storeStripe it never fails: a device erroring mid-write is marked
// failed and skipped — its content is moot — and the caller decides via
// failedCount whether the array survived.
func (a *Array) writeCellsBestEffort(si int64, cells []erasure.Coord, data [][]byte, sc *opScratch) {
	a.writeRuns(si, coalesce(cells, sc), data, sc)
}

// stageRuns builds the iovec lists of a set of coalesced runs in sc.vecbufs
// and the matching vecRuns in sc.vruns. A run holding a cell of the data
// overlay gets one buffer per cell, resolved through erasure's CellFrom (the
// caller's buffer for a data cell the overlay holds, sc.s otherwise); a run
// living wholly in stripe memory gets its contiguous ColRange as one buffer,
// so a device without native scatter/gather still moves it in one call. The
// caller clears sc.vecbufs once the runs are done.
func (a *Array) stageRuns(runs []cellRun, data [][]byte, sc *opScratch) []vecRun {
	bufs := sc.vecbufs[:0]
	vruns := sc.vruns[:0]
	for _, r := range runs {
		lo := len(bufs)
		if a.inOverlay(r, data) {
			for k := 0; k < r.n; k++ {
				bufs = append(bufs, a.code.CellFrom(sc.s, data, erasure.Coord{Row: r.row + k, Col: r.col}))
			}
		} else {
			bufs = append(bufs, sc.s.ColRange(r.col, r.row, r.n))
		}
		vruns = append(vruns, vecRun{col: r.col, row: r.row, n: r.n, lo: lo, hi: len(bufs)})
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

// runCell returns cell k of a staged run's iovec list: its own buffer, or
// its slice of the run's one contiguous buffer.
func (a *Array) runCell(bufs [][]byte, k int) []byte {
	if len(bufs) == 1 {
		return bufs[0][k*a.elemSize : (k+1)*a.elemSize]
	}
	return bufs[k]
}

// writeRuns is the data path's one best-effort run writer: it stages the
// runs' iovecs (stageRuns) and commits each run as one gather write — run by
// run, fanned out, or as one async batch.
func (a *Array) writeRuns(si int64, runs []cellRun, data [][]byte, sc *opScratch) {
	vruns := a.stageRuns(runs, data, sc)
	if a.aio != nil {
		a.writeVecRunsAsync(si, vruns, sc)
	} else if a.conc <= 1 || len(vruns) <= 1 { // see readCells: avoid the escaping closure
		for _, r := range vruns {
			a.writeVecRun(si, r, sc)
		}
	} else {
		_ = a.fanOut(len(vruns), func(i int) error { a.writeVecRun(si, vruns[i], sc); return nil })
	}
	clear(sc.vecbufs) // drop the user-buffer references before the scratch is pooled
}

// writeVecRun commits one staged run. A failed column is skipped (its span
// still records the run). A single cell goes through writeElemL; a longer run
// is one WriteVecAtN whose error retries element-at-a-time from the same
// iovecs, so a partially failing device still gets the cells it can take
// (writeElemL marks it failed).
func (a *Array) writeVecRun(si int64, r vecRun, sc *opScratch) {
	tc := a.tr.Begin(trace.OpDevWrite, int32(r.col), si, sc.tc.Link())
	bufs := sc.vecbufs[r.lo:r.hi]
	var err error
	switch {
	case a.isFailed(r.col):
	case r.n == 1:
		err = a.writeElemL(si, erasure.Coord{Row: r.row, Col: r.col}, bufs[0], tc.Link())
	default:
		if _, err = a.iodevs[r.col].WriteVecAtNLink(bufs, a.deviceOffset(si, r.row), int64(r.n), tc.Link()); err != nil {
			for k := 0; k < r.n; k++ {
				_ = a.writeElemL(si, erasure.Coord{Row: r.row + k, Col: r.col}, a.runCell(bufs, k), tc.Link())
			}
		}
	}
	a.tr.End(tc, int64(r.n*a.elemSize), err != nil)
}

// writeColumn writes one whole column of a stripe as a single coalesced
// device call straight from stripe memory, bypassing the failure mark —
// Rebuild uses it to fill the replaced device, which is still marked failed.
// Unlike the best-effort data-path writes, a rebuild must land every byte,
// so errors propagate.
func (a *Array) writeColumn(si int64, col int, s *stripe.Stripe, parent trace.Link) error {
	tc := a.tr.Begin(trace.OpDevWrite, int32(col), si, parent)
	rows := a.code.Rows()
	_, err := a.iodevs[col].WriteAtNLink(s.ColRange(col, 0, rows), a.deviceOffset(si, 0), int64(rows), tc.Link())
	a.tr.End(tc, int64(rows*a.elemSize), err != nil)
	return err
}

// opScratch is the pooled per-stripe-task scratch: one stripe buffer used as
// the element arena, mark bitmaps (consumers clear the ones they use before
// use — pooled state is stale by design), coordinate and run lists, and an
// XOR gather list. One opScratch serves one stripe task at a time; the
// per-column goroutines under it only touch disjoint cells of sc.s and the
// shared run list built before the fan-out.
type opScratch struct {
	s       *stripe.Stripe
	seen    []bool // rows×cols cell marks
	part    []bool // rows×cols partial-write marks
	gseen   []bool // per-group marks
	coords  []erasure.Coord
	fetch   []erasure.Coord
	miss    []erasure.Coord // readCells' cache-miss list
	srcs    [][]byte
	runs    []cellRun
	vruns   []vecRun     // vectored device runs (stageRuns, direct reads)
	vecbufs [][]byte     // their iovec assembly (cleared after use)
	data    [][]byte     // the data overlay: user-buffer views by data index (cleared after use)
	tc      trace.Ctx    // the stripe task's span; set at every task start (pooled state is stale)
	deg     degradedRead // the read task's degraded record; zero between tasks (endDegraded)

	// Async-scheduler staging (see async.go): completion handles, device
	// spans and harvested errors of the current batch, plus per-run
	// single-buffer iovec storage.
	comps []*blockdev.Completion
	ctcs  []trace.Ctx
	abufs [][]byte
	aerrs []error
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
		gseen: make([]bool, len(a.code.Groups())),
		data:  make([][]byte, a.code.DataElems()),
	}
}

func (a *Array) putScratch(sc *opScratch) { a.scratch.Put(sc) }

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
