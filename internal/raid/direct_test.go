package raid

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/erasure"
	"dcode/internal/obs"
)

// vecRecorder wraps a device and records, element by element, the exact
// buffers of every vectored call, so tests can pin that the array passed
// views of the caller's buffer — not staged copies — down to the device
// layer. An iovec spanning several elements (a run living wholly in stripe
// memory) is recorded as its element-sized slices. readOffs holds the device
// offset of each recorded read element, writeIovs the iovec count of each
// gather write. With failVec set, every gather write of more than one element
// fails (and writes nothing) while element writes — the one-element iovecs
// of the retry — still succeed.
type vecRecorder struct {
	blockdev.Device
	mu        sync.Mutex
	reads     [][]byte
	readOffs  []int64
	writes    [][]byte
	writeIovs []int
	failVec   bool
}

func (v *vecRecorder) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	v.mu.Lock()
	at := off
	for _, b := range bufs {
		for i := 0; i < len(b); i += elemSize {
			v.reads = append(v.reads, b[i:min(i+elemSize, len(b))])
			v.readOffs = append(v.readOffs, at+int64(i))
		}
		at += int64(len(b))
	}
	v.mu.Unlock()
	return v.Device.ReadVecAt(bufs, off)
}

func (v *vecRecorder) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	v.mu.Lock()
	for _, b := range bufs {
		for i := 0; i < len(b); i += elemSize {
			v.writes = append(v.writes, b[i:min(i+elemSize, len(b))])
		}
	}
	v.writeIovs = append(v.writeIovs, len(bufs))
	v.mu.Unlock()
	if v.failVec && blockdev.VecLen(bufs) > elemSize {
		return 0, errors.New("injected gather-write error")
	}
	return v.Device.WriteVecAt(bufs, off)
}

func newRecordedArray(t *testing.T, stripes int64, opts ...Option) (*Array, []*vecRecorder) {
	t.Helper()
	return newRecordedArrayCode(t, "dcode", 5, stripes, opts...)
}

func newRecordedArrayCode(t *testing.T, id string, p int, stripes int64, opts ...Option) (*Array, []*vecRecorder) {
	t.Helper()
	code := codes.MustNew(id, p)
	devs := make([]blockdev.Device, code.Cols())
	recs := make([]*vecRecorder, code.Cols())
	devSize := stripes * int64(code.Rows()) * elemSize
	for i := range devs {
		recs[i] = &vecRecorder{Device: blockdev.NewMem(devSize)}
		devs[i] = recs[i]
	}
	a, err := New(code, devs, elemSize, stripes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a, recs
}

// aliasSet maps the address of every element-aligned chunk of p to its
// offset, for deciding whether a device-visible buffer is a view of p.
func aliasSet(p []byte) map[*byte]int {
	m := make(map[*byte]int)
	for i := 0; i+elemSize <= len(p); i += elemSize {
		m[&p[i]] = i
	}
	return m
}

// TestDirectReadZeroCopy pins the tentpole claim for reads: an aligned
// full-stripe read on a healthy array hands the device views of the caller's
// buffer — every iovec the devices saw is element-sized and aliases p, so
// not one byte was staged through stripe memory.
func TestDirectReadZeroCopy(t *testing.T) {
	a, recs := newRecordedArray(t, 4, WithConcurrency(1))
	stripeBytes := a.code.DataElems() * elemSize
	want := pattern(2*stripeBytes, 3)
	if _, err := a.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		r.reads = nil
	}

	p := make([]byte, len(want))
	if _, err := a.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, want) {
		t.Fatal("direct read returned wrong data")
	}
	chunks := aliasSet(p)
	seen := 0
	for col, r := range recs {
		for _, buf := range r.reads {
			if len(buf) != elemSize {
				t.Fatalf("col %d saw a %d-byte iovec, want element-sized %d", col, len(buf), elemSize)
			}
			if _, ok := chunks[&buf[0]]; !ok {
				t.Fatalf("col %d read into a staging buffer, not the caller's", col)
			}
			seen++
		}
	}
	if wantBufs := 2 * a.code.DataElems(); seen != wantBufs {
		t.Fatalf("devices saw %d read iovecs, want %d (every data element, once)", seen, wantBufs)
	}
}

// TestDegradedDirectReadZeroCopy pins the degraded half of the read claim:
// with any one column failed, an aligned read lands every surviving wanted
// cell straight in the caller's buffer — the iovec the device saw for it
// aliases p — and rebuilds the lost ones there. Only recovery-only cells (read
// for the plan, wanted by nobody) go to stripe memory, and each surviving
// wanted cell is read exactly once.
func TestDegradedDirectReadZeroCopy(t *testing.T) {
	const stripes = 3
	a, recs := newRecordedArray(t, stripes, WithConcurrency(1))
	code := a.Code()
	d := code.DataElems()
	want := pattern(stripes*d*elemSize, 13)
	if _, err := a.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	colStripe := int64(code.Rows() * elemSize) // one stripe's bytes on a column
	// Reads in elements: the whole volume, runs inside and across stripes,
	// and a single element.
	reads := []struct{ off, n int }{{0, stripes * d}, {3, 9}, {d - 2, 5}, {d + 1, 1}}
	for down := 0; down < code.Cols(); down++ {
		if err := a.FailDisk(down); err != nil {
			t.Fatal(err)
		}
		degraded := false
		for _, rd := range reads {
			for _, r := range recs {
				r.reads, r.readOffs = nil, nil
			}
			p := make([]byte, rd.n*elemSize)
			before := a.Stats().DegradedReads
			if _, err := a.ReadAt(p, int64(rd.off*elemSize)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, want[rd.off*elemSize:(rd.off+rd.n)*elemSize]) {
				t.Fatalf("down %d, read %+v: wrong data", down, rd)
			}
			degraded = degraded || a.Stats().DegradedReads > before
			wanted := make(map[[3]int]bool) // {stripe, row, col}
			surviving := 0
			for e := rd.off; e < rd.off+rd.n; e++ {
				co := code.DataCoord(e % d)
				wanted[[3]int{e / d, co.Row, co.Col}] = true
				if co.Col != down {
					surviving++
				}
			}
			chunks := aliasSet(p)
			aliased := 0
			for col, r := range recs {
				for i, buf := range r.reads {
					if len(buf) != elemSize {
						t.Fatalf("col %d saw a %d-byte iovec, want element-sized %d", col, len(buf), elemSize)
					}
					off := r.readOffs[i]
					cell := [3]int{int(off / colStripe), int(off%colStripe) / elemSize, col}
					_, inP := chunks[&buf[0]]
					if wanted[cell] != inP {
						t.Fatalf("down %d, read %+v: cell %v wanted=%v but its iovec aliases p=%v",
							down, rd, cell, wanted[cell], inP)
					}
					if inP {
						aliased++
					}
				}
			}
			if aliased != surviving {
				t.Fatalf("down %d, read %+v: %d iovecs alias p, want %d (every surviving wanted cell, once)",
					down, rd, aliased, surviving)
			}
		}
		if !degraded {
			t.Fatalf("down %d: no read took the degraded path", down)
		}
		if err := a.Rebuild(down); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDirectWriteZeroCopy pins the zero-copy claim for writes: an aligned
// full-stripe write (the write plan with nothing to read) gathers the data
// elements straight from the caller's buffer. Parity iovecs come from stripe memory (they have to — they are
// computed), so exactly DataElems of each stripe's iovecs alias p.
func TestDirectWriteZeroCopy(t *testing.T) {
	a, recs := newRecordedArray(t, 4, WithConcurrency(1))
	stripeBytes := a.code.DataElems() * elemSize
	p := pattern(stripeBytes, 9)
	if _, err := a.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	chunks := aliasSet(p)
	aliased, total := 0, 0
	for col, r := range recs {
		for _, buf := range r.writes {
			if len(buf) != elemSize {
				t.Fatalf("col %d saw a %d-byte write iovec, want %d", col, len(buf), elemSize)
			}
			if _, ok := chunks[&buf[0]]; ok {
				aliased++
			}
			total++
		}
	}
	if aliased != a.code.DataElems() {
		t.Fatalf("%d write iovecs alias the caller's buffer, want %d (every data element)",
			aliased, a.code.DataElems())
	}
	if wantTotal := a.code.Rows() * a.code.Cols(); total != wantTotal {
		t.Fatalf("devices saw %d write iovecs, want %d (every cell of the stripe)", total, wantTotal)
	}
	got := make([]byte, len(p))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("zero-copy write round trip corrupted data")
	}
}

// TestDirectReadFallsBackOnError pins the reader's re-plan: a device error
// mid-read marks the disk, and the stripe reader plans the stripe again
// around it and reconstructs — the caller still gets correct data. On the
// degraded branch the stripe task still counts as one degraded read, however
// many times it re-planned.
func TestDirectReadFallsBackOnError(t *testing.T) {
	t.Run("healthy", func(t *testing.T) {
		a, mems := newArray(t, "dcode", 5, 4)
		stripeBytes := a.code.DataElems() * elemSize
		want := pattern(stripeBytes, 7)
		if _, err := a.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		// Fail a device out from under the array (no FailDisk) so the reader
		// plans a healthy read and the error surfaces mid-read.
		mems[1].Fail()
		got := make([]byte, len(want))
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("fallback read after mid-path device failure returned wrong data")
		}
		if !a.isFailed(1) {
			t.Fatal("the re-planned read did not mark the failed disk")
		}
	})
	t.Run("degraded", func(t *testing.T) {
		rec := obs.NewRecorder(64)
		a, mems := newArrayConc(t, "dcode", 5, 4, WithEvents(rec))
		want := pattern(int(a.Size()), 7)
		if _, err := a.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		const down = 0
		if err := a.FailDisk(down); err != nil {
			t.Fatal(err)
		}
		// One element on the failed column: every cell its plan fetches is
		// plan-only. Break the device under the first of them.
		e := 0
		for a.code.DataCoord(e).Col != down {
			e++
		}
		plan, err := a.planDegraded(down, []erasure.Coord{a.code.DataCoord(e)})
		if err != nil {
			t.Fatal(err)
		}
		victim := plan.Fetch[0].Col
		mems[victim].Fail()
		got := make([]byte, elemSize)
		if _, err := a.ReadAt(got, int64(e*elemSize)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[e*elemSize:(e+1)*elemSize]) {
			t.Fatal("fallback read after a plan-only cell failed returned wrong data")
		}
		if !a.isFailed(victim) {
			t.Fatalf("the re-planned read did not mark disk %d failed", victim)
		}
		if n := a.Stats().DegradedReads; n != 1 {
			t.Fatalf("DegradedReads = %d, want 1 for the one stripe task", n)
		}
		if evs := eventKinds(rec)[obs.EvDegradedRead]; len(evs) != 1 {
			t.Fatalf("%d degraded_read events, want 1: %+v", len(evs), evs)
		} else if evs[0].Disk != down {
			t.Fatalf("degraded_read event names disk %d, want %d", evs[0].Disk, down)
		}
	})
}

// TestDirectReadRepairsBadSectorInPlace pins the stripe reader's repair: a
// bad sector under a multi-cell aligned read of a healthy array is repaired in
// place by the run reader's element-at-a-time retry — correct bytes, one
// sector repaired, no disk marked — with pinned per-disk tallies: the fill
// writes every cell of both stripes; on the bad cell's column the read's
// vectored call fails, the run is retried cell by cell (the second read
// error), and the repair rewrites the cell from its recovery group.
func TestDirectReadRepairsBadSectorInPlace(t *testing.T) {
	a, mems := newArrayConc(t, "dcode", 5, 2, WithConcurrency(1))
	want := pattern(int(a.Size()), 17)
	if _, err := a.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	// A data cell with a data cell below it on its column: the stripe-wide
	// read coalesces the two into one multi-cell run.
	var bad erasure.Coord
	for e := 0; e < a.code.DataElems(); e++ {
		co := a.code.DataCoord(e)
		if a.code.DataIndex(co.Row+1, co.Col) >= 0 {
			bad = co
			break
		}
	}
	if bad != (erasure.Coord{Row: 0, Col: 0}) {
		t.Fatalf("bad cell %v; the pinned tallies assume (0,0)", bad)
	}
	mems[bad.Col].InjectBadSector(a.deviceOffset(0, bad.Row) + 3)
	n := a.code.DataElems() * elemSize
	got := make([]byte, n)
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[:n]) {
		t.Fatal("read over a bad sector returned wrong data")
	}
	if st := a.Stats(); st.SectorsRepaired != 1 {
		t.Fatalf("SectorsRepaired = %d, want 1", st.SectorsRepaired)
	}
	if fd := a.FailedDisks(); len(fd) != 0 {
		t.Fatalf("a bad sector marked disks %v failed", fd)
	}
	wantReads := []int64{4, 4, 4, 4, 3}
	wantWrites := []int64{11, 10, 10, 10, 10}
	wantErrs := []int64{2, 0, 0, 0, 0}
	for c := range a.columns {
		s := a.columns[c].m.Snapshot()
		if s.Reads != wantReads[c] || s.Writes != wantWrites[c] || s.ReadErrors != wantErrs[c] {
			t.Fatalf("disk %d tallies: %d reads / %d writes / %d read errors, want %d / %d / %d",
				c, s.Reads, s.Writes, s.ReadErrors, wantReads[c], wantWrites[c], wantErrs[c])
		}
	}
}

// TestUnalignedReadZeroCopy pins that an unaligned read lands its whole
// elements in the caller's buffer: a read of [elemSize/2, 3.5·elemSize) —
// partial, whole, whole, partial — hands the devices one element-sized iovec
// aliasing p for each whole element on a surviving column, and no iovec
// aliasing p anywhere else; the partial elements and recovery-only cells go
// through stripe memory. Checked on a healthy array and with each column down.
func TestUnalignedReadZeroCopy(t *testing.T) {
	a, recs := newRecordedArray(t, 2, WithConcurrency(1))
	code := a.Code()
	want := pattern(int(a.Size()), 29)
	if _, err := a.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	const off = elemSize / 2
	p := make([]byte, 3*elemSize)
	within := make(map[*byte]int, len(p)) // every byte address of p
	for i := range p {
		within[&p[i]] = i
	}
	for down := -1; down < code.Cols(); down++ {
		if down >= 0 {
			if err := a.FailDisk(down); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range recs {
			r.reads, r.readOffs = nil, nil
		}
		clear(p)
		if _, err := a.ReadAt(p, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, want[off:off+len(p)]) {
			t.Fatalf("down %d: unaligned read returned wrong data", down)
		}
		// Elements 1 and 2 are whole; p holds element e from e*elemSize-off.
		expect := map[int]bool{}
		for e := 1; e <= 2; e++ {
			if code.DataCoord(e).Col != down {
				expect[e*elemSize-off] = true
			}
		}
		aliased := map[int]int{}
		for col, r := range recs {
			for _, buf := range r.reads {
				at, inP := within[&buf[0]]
				if !inP {
					continue
				}
				if len(buf) != elemSize || !expect[at] {
					t.Fatalf("down %d: col %d read a %d-byte iovec into p[%d:], want element-sized views of the whole elements %v",
						down, col, len(buf), at, expect)
				}
				aliased[at]++
			}
		}
		for at := range expect {
			if aliased[at] != 1 {
				t.Fatalf("down %d: the whole element at p[%d:] is aliased by %d iovecs, want 1", down, at, aliased[at])
			}
		}
		if down >= 0 {
			if err := a.Rebuild(down); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDirectWriteFallsBackOnError exercises settleRun's element-at-a-
// time retry: the failing column is marked, the others commit, and a
// degraded read reconstructs the stripe the write produced.
func TestDirectWriteFallsBackOnError(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 4)
	stripeBytes := a.code.DataElems() * elemSize
	mems[2].Fail()
	want := pattern(stripeBytes, 11)
	if _, err := a.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if !a.isFailed(2) {
		t.Fatal("write retry did not mark the failed disk")
	}
	got := make([]byte, len(want))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded read after mid-write failure returned wrong data")
	}
}

// TestDirectWriteStripeOnlyRunIsOneBuffer pins stageRuns' contiguous case and
// the retry that slices it. RDP's parity-only columns hold no overlay cell,
// so a full-stripe write hands each of them its column as one buffer — a
// device without native scatter/gather moves it in one call — while a data
// column gets one iovec per cell. When every multi-element gather write fails
// but element writes succeed, the element-at-a-time retry must land every
// cell from both kinds of iovec list — one single-iovec write per cell —
// leaving no disk marked and the parity consistent.
func TestDirectWriteStripeOnlyRunIsOneBuffer(t *testing.T) {
	for _, failVec := range []bool{false, true} {
		t.Run(fmt.Sprintf("failVec=%v", failVec), func(t *testing.T) {
			a, recs := newRecordedArrayCode(t, "rdp", 5, 2, WithConcurrency(1))
			holdsData := make([]bool, a.code.Cols())
			for i := 0; i < a.code.DataElems(); i++ {
				holdsData[a.code.DataCoord(i).Col] = true
			}
			for _, r := range recs {
				r.failVec = failVec
			}
			want := pattern(a.code.DataElems()*elemSize, 5)
			if _, err := a.WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}
			parityOnly := 0
			for col, r := range recs {
				want := []int{a.code.Rows()}
				if !holdsData[col] {
					want[0] = 1
					parityOnly++
				}
				if failVec {
					for k := 0; k < a.code.Rows(); k++ {
						want = append(want, 1)
					}
				}
				if !slices.Equal(r.writeIovs, want) {
					t.Fatalf("col %d: writes with %v iovecs, want %v", col, r.writeIovs, want)
				}
			}
			if parityOnly == 0 {
				t.Fatal("rdp has no parity-only column; the test needs one")
			}
			if fd := a.FailedDisks(); len(fd) != 0 {
				t.Fatalf("disks %v marked failed; element writes all succeeded", fd)
			}
			for _, r := range recs {
				r.failVec = false
			}
			if fixed, err := a.Scrub(); err != nil || fixed != 0 {
				t.Fatalf("scrub after the write: %d stripes fixed, err %v; want a consistent stripe", fixed, err)
			}
			got := make([]byte, len(want))
			if _, err := a.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("full-stripe write read back wrong")
			}
		})
	}
}

// TestDirectPathsMatchGeneralTwin matches the one stripe reader against two
// twins that share no code with it: a flat byte model of the volume and a
// per-cell I/O oracle. One seeded stream of reads and small writes, aligned
// and unaligned, runs on a healthy array, then with column down failed, then
// with the next column failed too. Every read must return the model's bytes,
// and on each disk it must make exactly the element reads the oracle derives
// from its cells: per stripe, the wanted cells; the degraded plan's Fetch when
// a wanted cell is on the one failed column; every surviving cell of the
// stripe when a wanted cell is lost with two columns down. A column holding
// only parity (RDP's last two) never makes a read degraded; any other must
// have, and decoding must have run.
func TestDirectPathsMatchGeneralTwin(t *testing.T) {
	for _, id := range []string{"dcode", "xcode", "rdp", "hdp"} {
		for _, p := range []int{5, 7} {
			cols := codes.MustNew(id, p).Cols()
			for down := 0; down < cols; down++ {
				t.Run(fmt.Sprintf("%s/p%d/down%d", id, p, down), func(t *testing.T) {
					testReadsMatchModel(t, id, p, down)
				})
			}
		}
	}
}

func testReadsMatchModel(t *testing.T, id string, p, down int) {
	const stripes = 3
	a, _ := newArrayConc(t, id, p, stripes, WithConcurrency(1))
	model := pattern(int(a.Size()), byte(down))
	if _, err := a.WriteAt(model, 0); err != nil {
		t.Fatal(err)
	}
	code := a.code
	d := code.DataElems()
	rng := rand.New(rand.NewSource(int64(p*100 + down)))
	// span draws a byte range of at most maxElems elements, element-aligned
	// or at any byte.
	span := func(maxElems int, aligned bool) (off, n int) {
		if aligned {
			k := 1 + rng.Intn(maxElems)
			return rng.Intn(len(model)/elemSize-k+1) * elemSize, k * elemSize
		}
		n = 1 + rng.Intn(maxElems*elemSize)
		return rng.Intn(len(model) - n + 1), n
	}
	// oracle returns the element reads per disk that reading [off, off+n)
	// must make in the array's current failure state.
	oracle := func(off, n int) []int64 {
		failed := a.FailedDisks()
		want := make([]int64, code.Cols())
		last := (off + n - 1) / elemSize
		for e := off / elemSize; e <= last; {
			si := e / d
			var cells []erasure.Coord
			lost := false
			for ; e <= last && e/d == si; e++ {
				co := code.DataCoord(e % d)
				cells = append(cells, co)
				lost = lost || slices.Contains(failed, co.Col)
			}
			switch {
			case !lost:
			case len(failed) == 1:
				plan, err := code.PlanDegraded(failed[0], cells, nil)
				if err != nil {
					t.Fatal(err)
				}
				cells = plan.Fetch
			default:
				cells = cells[:0]
				for c := 0; c < code.Cols(); c++ {
					for r := 0; r < code.Rows() && !slices.Contains(failed, c); r++ {
						cells = append(cells, erasure.Coord{Row: r, Col: c})
					}
				}
			}
			for _, co := range cells {
				want[co.Col]++
			}
		}
		return want
	}
	reads := func() []int64 {
		out := make([]int64, len(a.columns))
		for c, dev := range a.columns {
			out[c] = dev.m.Reads.Load()
		}
		return out
	}
	op := func(write, aligned bool) {
		t.Helper()
		if write {
			off, n := span(d/2, aligned) // small writes: the write plan patches
			buf := make([]byte, n)
			rng.Read(buf)
			if _, err := a.WriteAt(buf, int64(off)); err != nil {
				t.Fatal(err)
			}
			copy(model[off:], buf)
			return
		}
		off, n := span(2*d, aligned) // reads up to two stripes
		want := oracle(off, n)
		before := reads()
		got := make([]byte, n)
		if _, err := a.ReadAt(got, int64(off)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model[off:off+n]) {
			t.Fatalf("failed %v, read [%d,+%d): bytes disagree with the model", a.FailedDisks(), off, n)
		}
		for c, after := range reads() {
			if after-before[c] != want[c] {
				t.Fatalf("failed %v, read [%d,+%d): disk %d made %d element reads, the oracle %d",
					a.FailedDisks(), off, n, c, after-before[c], want[c])
			}
		}
	}
	for i := 0; i < 30; i++ {
		op(i%2 == 0, i%4 < 2)
	}
	if err := a.FailDisk(down); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		op(i%3 == 0, i%4 < 2)
	}
	holdsData := false
	for i := 0; i < d; i++ {
		holdsData = holdsData || code.DataCoord(i).Col == down
	}
	if n := a.Stats().DegradedReads; holdsData != (n > 0) {
		t.Fatalf("%d degraded reads with disk %d down, want nonzero iff it holds data (%v)", n, down, holdsData)
	}
	if err := a.FailDisk((down + 1) % code.Cols()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		op(i%3 == 0, i%4 < 2)
	}
	if x := a.Snapshot().XOR.DecodeOps; x == 0 {
		t.Fatal("no decode XOR ops after single- and double-failure reads")
	}
}
