package raid

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/erasure"
	"dcode/internal/recovery"
	"dcode/internal/trace"
)

const elemSize = 64

func newArray(t *testing.T, id string, p int, stripes int64) (*Array, []*blockdev.MemDevice) {
	t.Helper()
	code := codes.MustNew(id, p)
	devs := make([]blockdev.Device, code.Cols())
	mems := make([]*blockdev.MemDevice, code.Cols())
	devSize := stripes * int64(code.Rows()) * elemSize
	for i := range devs {
		mems[i] = blockdev.NewMem(devSize)
		devs[i] = mems[i]
	}
	a, err := New(code, devs, elemSize, stripes)
	if err != nil {
		t.Fatal(err)
	}
	return a, mems
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
	return b
}

func TestNewValidation(t *testing.T) {
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, 4)
	if _, err := New(code, devs, elemSize, 2); err == nil {
		t.Fatal("wrong device count accepted")
	}
	devs = make([]blockdev.Device, 5)
	for i := range devs {
		devs[i] = blockdev.NewMem(10) // too small
	}
	if _, err := New(code, devs, elemSize, 2); err == nil {
		t.Fatal("undersized devices accepted")
	}
	for i := range devs {
		devs[i] = blockdev.NewMem(1 << 16)
	}
	if _, err := New(code, devs, 0, 2); err == nil {
		t.Fatal("zero element size accepted")
	}
	if _, err := New(code, devs, elemSize, 0); err == nil {
		t.Fatal("zero stripes accepted")
	}
}

func TestSizeAndMetadata(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 4)
	want := int64(4 * 15 * elemSize) // 4 stripes × 15 data elements
	if a.Size() != want {
		t.Fatalf("Size = %d, want %d", a.Size(), want)
	}
	if a.Code().Name() != "D-Code" || a.ElemSize() != elemSize {
		t.Fatal("metadata accessors wrong")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 4)
	data := pattern(int(a.Size()), 1)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("full-volume round trip mismatch")
	}
}

func TestUnalignedWriteRead(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 4)
	base := pattern(int(a.Size()), 2)
	if _, err := a.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite an unaligned range spanning element and stripe boundaries.
	patch := pattern(500, 99)
	off := int64(elemSize*14 + 17)
	if _, err := a.WriteAt(patch, off); err != nil {
		t.Fatal(err)
	}
	copy(base[off:], patch)
	got := make([]byte, len(base))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatal("unaligned write corrupted the volume")
	}
}

// TestRangeValidation: reads and writes outside the volume — a negative
// offset, a range past the end, one whose end overflows int64 — return an
// error instead of panicking or touching a device.
func TestRangeValidation(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 2)
	for _, c := range []struct {
		off int64
		n   int
	}{
		{-1, 1},
		{a.Size() - 5, 10},
		{a.Size(), 1},
		{math.MaxInt64 - 10, 16},
		{math.MaxInt64, 1},
	} {
		if _, err := a.ReadAt(make([]byte, c.n), c.off); err == nil {
			t.Errorf("read of %d bytes at %d accepted", c.n, c.off)
		}
		if _, err := a.WriteAt(make([]byte, c.n), c.off); err == nil {
			t.Errorf("write of %d bytes at %d accepted", c.n, c.off)
		}
	}
	for c, dev := range a.columns {
		if s := dev.m.Snapshot(); s.Reads+s.Writes != 0 {
			t.Fatalf("disk %d served %d reads and %d writes for refused ranges", c, s.Reads, s.Writes)
		}
	}
}

// Parity must be consistent after RMW writes: verify every stripe on disk.
func TestParityConsistentAfterRMW(t *testing.T) {
	a, _ := newArray(t, "rdp", 5, 4) // RDP exercises parity-through-parity updates
	if _, err := a.WriteAt(pattern(int(a.Size()), 3), 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		off := rng.Int63n(a.Size() - 100)
		if _, err := a.WriteAt(pattern(1+rng.Intn(99), byte(i)), off); err != nil {
			t.Fatal(err)
		}
	}
	fixed, err := a.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 0 {
		t.Fatalf("scrub repaired %d stripes after RMW writes; parity updates are broken", fixed)
	}
}

func TestDegradedReadSingleFailure(t *testing.T) {
	for _, id := range []string{"dcode", "xcode", "rdp", "hcode", "hdp", "evenodd"} {
		a, mems := newArray(t, id, 5, 3)
		data := pattern(int(a.Size()), 4)
		if _, err := a.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		mems[1].Fail()
		got := make([]byte, len(data))
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: degraded read: %v", id, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: degraded read returned wrong data", id)
		}
		if a.Stats().DegradedReads == 0 {
			t.Fatalf("%s: degraded reads not counted", id)
		}
	}
}

func TestDegradedReadDoubleFailure(t *testing.T) {
	a, mems := newArray(t, "dcode", 7, 3)
	data := pattern(int(a.Size()), 5)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	mems[2].Fail()
	mems[5].Fail()
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("double-degraded read returned wrong data")
	}
}

func TestTripleFailureFails(t *testing.T) {
	a, mems := newArray(t, "dcode", 7, 2)
	if _, err := a.WriteAt(pattern(int(a.Size()), 6), 0); err != nil {
		t.Fatal(err)
	}
	mems[0].Fail()
	mems[1].Fail()
	mems[2].Fail()
	if _, err := a.ReadAt(make([]byte, 100), 0); err == nil {
		t.Fatal("triple failure read succeeded")
	}
}

func TestDegradedWriteThenRebuild(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 3)
	data := pattern(int(a.Size()), 7)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	// Write while degraded.
	patch := pattern(800, 42)
	if _, err := a.WriteAt(patch, 100); err != nil {
		t.Fatal(err)
	}
	copy(data[100:], patch)

	// Replace the disk and rebuild.
	mems[3].Replace()
	if err := a.Rebuild(3); err != nil {
		t.Fatal(err)
	}
	if len(a.FailedDisks()) != 0 {
		t.Fatal("disk still marked failed after rebuild")
	}
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data wrong after degraded write + rebuild")
	}
	if fixed, err := a.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("array inconsistent after rebuild: fixed=%d err=%v", fixed, err)
	}
}

func TestRebuildValidation(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 2)
	if err := a.Rebuild(0); err == nil {
		t.Fatal("rebuild of healthy disk accepted")
	}
	if err := a.Rebuild(-1); err == nil {
		t.Fatal("rebuild of bogus disk accepted")
	}
}

func TestFailDiskValidation(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 2)
	if err := a.FailDisk(9); err == nil {
		t.Fatal("bogus disk accepted")
	}
	a.FailDisk(0)
	a.FailDisk(1)
	if err := a.FailDisk(2); err != ErrTooManyFailures {
		t.Fatalf("third failure: %v", err)
	}
}

func TestScrubRepairsCorruptedParity(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 2)
	if _, err := a.WriteAt(pattern(int(a.Size()), 8), 0); err != nil {
		t.Fatal(err)
	}
	// Silently corrupt a parity element of stripe 0: D-Code parities live in
	// the last two rows; element (3, 2) is row 3 on device 2.
	mems[2].Corrupt(int64(3 * elemSize))
	fixed, err := a.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 1 {
		t.Fatalf("scrub fixed %d stripes, want 1", fixed)
	}
	if fixed, _ := a.Scrub(); fixed != 0 {
		t.Fatal("second scrub still found damage")
	}
}

func TestScrubRequiresHealthyArray(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 2)
	a.FailDisk(0)
	if _, err := a.Scrub(); err == nil {
		t.Fatal("scrub ran on degraded array")
	}
}

// Device-level read errors must flip the array into degraded mode
// transparently: the read still succeeds via reconstruction.
func TestReadErrorTriggersDegradedPath(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 2)
	data := pattern(int(a.Size()), 9)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	mems[0].Fail() // not reported to the array; discovered on read
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-after-silent-failure returned wrong data")
	}
	if len(a.FailedDisks()) != 1 || a.FailedDisks()[0] != 0 {
		t.Fatalf("failed disks = %v, want [0]", a.FailedDisks())
	}
}

func TestFullStripeWriteDetection(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 2)
	stripeBytes := 15 * elemSize
	if _, err := a.WriteAt(pattern(stripeBytes, 10), 0); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.FullStripeWrites != 1 || st.RMWWrites != 0 {
		t.Fatalf("stats = %+v, want one full-stripe write", st)
	}
	if _, err := a.WriteAt(pattern(10, 11), 0); err != nil {
		t.Fatal(err)
	}
	if a.Stats().RMWWrites == 0 {
		t.Fatal("partial write not counted as RMW")
	}
}

// Works for every registered code: write, fail two disks, read, rebuild.
func TestAllCodesEndToEnd(t *testing.T) {
	for _, e := range codes.All() {
		a, mems := newArray(t, e.ID, 7, 2)
		data := pattern(int(a.Size()), 12)
		if _, err := a.WriteAt(data, 0); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		mems[0].Fail()
		mems[3].Fail()
		got := make([]byte, len(data))
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: degraded data mismatch", e.ID)
		}
		mems[0].Replace()
		if err := a.Rebuild(0); err != nil {
			t.Fatalf("%s: rebuild 0: %v", e.ID, err)
		}
		mems[3].Replace()
		if err := a.Rebuild(3); err != nil {
			t.Fatalf("%s: rebuild 3: %v", e.ID, err)
		}
		if fixed, err := a.Scrub(); err != nil || fixed != 0 {
			t.Fatalf("%s: post-rebuild scrub fixed=%d err=%v", e.ID, fixed, err)
		}
	}
}

// A disk that dies silently is discovered during a partial write; the write
// must still land, the stripe must stay consistent, and a later rebuild must
// restore full redundancy.
func TestWriteDiscoversSilentFailure(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 3)
	data := pattern(int(a.Size()), 13)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	mems[2].Fail() // not reported to the array
	patch := pattern(200, 50)
	if _, err := a.WriteAt(patch, 64); err != nil {
		t.Fatal(err)
	}
	copy(data[64:], patch)
	if len(a.FailedDisks()) != 1 || a.FailedDisks()[0] != 2 {
		t.Fatalf("failed disks = %v, want [2]", a.FailedDisks())
	}
	mems[2].Replace()
	if err := a.Rebuild(2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across silent failure during write")
	}
	if fixed, err := a.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("stripe inconsistent after silent-failure write: fixed=%d err=%v", fixed, err)
	}
}

// With one disk down, a degraded read must fetch only the recovery group's
// elements (the paper's low-I/O degraded read), not the whole stripe.
func TestDegradedReadUsesMinimalFetch(t *testing.T) {
	a, mems := newArray(t, "dcode", 7, 2)
	if _, err := a.WriteAt(pattern(int(a.Size()), 21), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	var before int64
	for _, m := range mems {
		before += m.Stats().Reads
	}
	// Read exactly one element that lived on the failed disk.
	lostIdx := -1
	for i := 0; i < a.Code().DataElems(); i++ {
		if a.Code().DataCoord(i).Col == 3 {
			lostIdx = i
			break
		}
	}
	buf := make([]byte, elemSize)
	if _, err := a.ReadAt(buf, int64(lostIdx)*elemSize); err != nil {
		t.Fatal(err)
	}
	var after int64
	for _, m := range mems {
		after += m.Stats().Reads
	}
	got := after - before
	// A D-Code recovery group has n-2 = 5 elements plus its parity: the lost
	// element costs at most 5 device reads, far below the 42-cell stripe.
	if got > 6 {
		t.Fatalf("degraded single-element read issued %d device reads, want ≤ 6", got)
	}
	want := pattern(int(a.Size()), 21)[int64(lostIdx)*elemSize : int64(lostIdx+1)*elemSize]
	if !bytes.Equal(buf, want) {
		t.Fatal("degraded minimal-fetch read returned wrong data")
	}
}

// The planned rebuild must read fewer device elements than whole-stripe
// reconstruction would (the §III-D ~25% claim, measured on real devices).
func TestRebuildUsesPlannedReads(t *testing.T) {
	const stripes = 8
	a, mems := newArray(t, "dcode", 7, stripes)
	if _, err := a.WriteAt(pattern(int(a.Size()), 31), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	mems[2].Replace() // Replace resets the device's counters too
	// Element reads are counted through the array's instrumented tallies,
	// which count a coalesced device call as the element accesses it
	// replaces; the raw MemDevice counters measure physical calls.
	sumElemReads := func() (n int64) {
		for _, d := range a.Snapshot().Devices {
			n += d.Reads
		}
		return n
	}
	sumPhysReads := func() (n int64) {
		for _, m := range mems {
			n += m.Stats().Reads
		}
		return n
	}
	beforeElems, beforePhys := sumElemReads(), sumPhysReads()
	if err := a.Rebuild(2); err != nil {
		t.Fatal(err)
	}
	reads := sumElemReads() - beforeElems
	phys := sumPhysReads() - beforePhys
	fullStripe := int64(stripes * 7 * 6) // every surviving cell
	if reads >= fullStripe {
		t.Fatalf("rebuild read %d elements, not below the naive %d", reads, fullStripe)
	}
	// The optimizer's plan for D-Code p=7 reads 26 elements per stripe
	// (see recovery tests) vs 31 conventional and 42-7=35 naive.
	if want := int64(stripes * 26); reads != want {
		t.Fatalf("rebuild read %d elements, want the planned %d", reads, want)
	}
	if phys > reads {
		t.Fatalf("rebuild issued %d physical reads for %d element reads; coalescing must never inflate calls", phys, reads)
	}
	// And the rebuilt array must be byte-perfect.
	got := make([]byte, a.Size())
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(int(a.Size()), 31)) {
		t.Fatal("planned rebuild corrupted data")
	}
	if fixed, err := a.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("scrub after planned rebuild: fixed=%d err=%v", fixed, err)
	}
}

// TestRebuildPlanTable rebuilds every column of every registered code at
// p=5 and p=7 and pins, per rebuilt stripe: the reads — the smaller of
// recovery.Optimize's plan and the degraded planner's whole-column plan, and
// for D-Code and X-Code Optimize's own 12 (p=5) and 26 (p=7), which the
// degraded planner does not beat — and Rows() writes; the rebuilt column
// must come back byte for byte and Scrub must find nothing to repair.
func TestRebuildPlanTable(t *testing.T) {
	const stripes = 3
	optimized := map[string]map[int]int64{
		"dcode": {5: 12, 7: 26},
		"xcode": {5: 12, 7: 26},
	}
	for _, e := range codes.All() {
		for _, p := range []int{5, 7} {
			code := codes.MustNew(e.ID, p)
			for col := 0; col < code.Cols(); col++ {
				t.Run(fmt.Sprintf("%s/p=%d/col=%d", e.ID, p, col), func(t *testing.T) {
					want := int64(-1)
					if opt, err := recovery.Optimize(code, col); err == nil {
						if pl, err := opt.Degraded(code); err == nil {
							want = int64(len(pl.Fetch))
						}
					}
					if pl, err := code.PlanDegraded(col, code.ColumnCells(col), nil); err == nil &&
						(want < 0 || int64(len(pl.Fetch)) < want) {
						want = int64(len(pl.Fetch))
					}
					if want < 0 {
						t.Fatal("neither planner can rebuild the column")
					}
					if n, ok := optimized[e.ID][p]; ok && want != n {
						t.Fatalf("planned %d reads per stripe, want Optimize's %d", want, n)
					}

					a, mems := newArray(t, e.ID, p, stripes)
					if _, err := a.WriteAt(pattern(int(a.Size()), byte(col+3)), 0); err != nil {
						t.Fatal(err)
					}
					before := make([]byte, mems[col].Size())
					if _, err := mems[col].ReadAt(before, 0); err != nil {
						t.Fatal(err)
					}
					if err := a.FailDisk(col); err != nil {
						t.Fatal(err)
					}
					mems[col].Replace()
					tally := func() (r, w int64) {
						for _, d := range a.Snapshot().Devices {
							r += d.Reads
							w += d.Writes
						}
						return r, w
					}
					r0, w0 := tally()
					if err := a.Rebuild(col); err != nil {
						t.Fatal(err)
					}
					r1, w1 := tally()
					if got := r1 - r0; got != want*stripes {
						t.Errorf("rebuild read %d cells, want %d per stripe × %d", got, want, stripes)
					}
					if got := w1 - w0; got != int64(code.Rows())*stripes {
						t.Errorf("rebuild wrote %d cells, want %d per stripe × %d", got, code.Rows(), stripes)
					}
					after := make([]byte, len(before))
					if _, err := mems[col].ReadAt(after, 0); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(after, before) {
						t.Fatal("rebuilt column differs from the lost one")
					}
					if fixed, err := a.Scrub(); err != nil || fixed != 0 {
						t.Fatalf("scrub after rebuild: fixed=%d err=%v", fixed, err)
					}
				})
			}
		}
	}
}

// Large partial writes must be served by re-encoding (cheaper than RMW once
// most of the stripe changes), and the stripe must stay consistent. An array
// pinned to re-encode-all reads exactly the untouched elements; its twin left
// to the planner reads no more and ends byte-identical.
func TestReconstructWriteStrategy(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 2)
	a.writePlans = planEncode
	twin, tmems := newArray(t, "dcode", 5, 2)
	reads := func(ms []*blockdev.MemDevice) int64 {
		var n int64
		for _, m := range ms {
			n += m.Stats().Reads
		}
		return n
	}
	for _, arr := range []*Array{a, twin} {
		if _, err := arr.WriteAt(pattern(int(a.Size()), 40), 0); err != nil {
			t.Fatal(err)
		}
	}
	before, tbefore := reads(mems), reads(tmems)
	// Overwrite 12 of the 15 data elements of stripe 0: RMW would cost
	// 2*12 + 2*P accesses; re-encoding reads only the 3 untouched
	// elements.
	patch := pattern(12*elemSize, 41)
	st0 := a.Stats()
	for _, arr := range []*Array{a, twin} {
		if _, err := arr.WriteAt(patch, 0); err != nil {
			t.Fatal(err)
		}
	}
	st1 := a.Stats()
	if st1.FullStripeWrites != st0.FullStripeWrites+1 || st1.RMWWrites != st0.RMWWrites {
		t.Fatalf("large partial write did not re-encode: %+v -> %+v", st0, st1)
	}
	if n := reads(mems) - before; n != 3 {
		t.Fatalf("re-encode-all read %d elements, want 3 untouched ones", n)
	}
	if n := reads(tmems) - tbefore; n > 3 {
		t.Fatalf("planner read %d elements, more than re-encode-all's 3", n)
	}
	devicesEqual(t, mems, tmems)
	// Small writes still patch.
	a.writePlans = planAuto
	if _, err := a.WriteAt(patch[:10], 5); err != nil {
		t.Fatal(err)
	}
	if a.Stats().RMWWrites == st1.RMWWrites {
		t.Fatal("small write did not take RMW")
	}
	if fixed, err := a.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("stripe inconsistent after mixed write strategies: fixed=%d err=%v", fixed, err)
	}
	// And the data must read back exactly.
	want := pattern(int(a.Size()), 40)
	copy(want, patch)
	copy(want[5:], patch[:10])
	got := make([]byte, a.Size())
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data wrong after mixed write strategies")
	}
}

// A latent sector error must be healed transparently by read-repair, without
// failing the disk.
func TestReadRepairHealsBadSector(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 2)
	data := pattern(int(a.Size()), 55)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Damage the sector under data element 0.
	co := a.Code().DataCoord(0)
	mems[co.Col].InjectBadSector(0)

	got := make([]byte, elemSize)
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:elemSize]) {
		t.Fatal("read-repair returned wrong data")
	}
	if len(a.FailedDisks()) != 0 {
		t.Fatalf("bad sector failed the whole disk: %v", a.FailedDisks())
	}
	if a.Stats().SectorsRepaired != 1 {
		t.Fatalf("SectorsRepaired = %d, want 1", a.Stats().SectorsRepaired)
	}
	// The sector is healed on media: a direct device read works again.
	buf := make([]byte, elemSize)
	if _, err := mems[co.Col].ReadAt(buf, 0); err != nil {
		t.Fatalf("sector still bad after repair: %v", err)
	}
	// And a second array read does not repair again.
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if a.Stats().SectorsRepaired != 1 {
		t.Fatal("repair ran twice for a healed sector")
	}
}

// TestReadRepairAroundDeadColumn heals a bad sector while another column is
// dead: whether the array already knows (marked) or the repair's own fetch
// finds out (unnoticed), the repair must fail the dead column only and rebuild
// the bad cell around it — a two-erasure decode of the stripe — rather than
// fail the bad sector's healthy column and leave the array with two down,
// whether the repair's runs go inline or fan out.
func TestReadRepairAroundDeadColumn(t *testing.T) {
	const dead = 1
	for _, tc := range []struct {
		marked bool
		conc   int
	}{{false, 1}, {true, 1}, {false, 4}, {true, 4}} {
		name := fmt.Sprintf("unnoticed/conc%d", tc.conc)
		if tc.marked {
			name = fmt.Sprintf("marked/conc%d", tc.conc)
		}
		t.Run(name, func(t *testing.T) {
			a, mems := newArrayConc(t, "dcode", 5, 2, WithConcurrency(tc.conc))
			data := pattern(int(a.Size()), 58)
			if _, err := a.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			co := a.Code().DataCoord(0)
			if co.Col == dead {
				t.Fatalf("data element 0 lies on the dead column %d", dead)
			}
			mems[dead].Fail()
			if tc.marked {
				if err := a.FailDisk(dead); err != nil {
					t.Fatal(err)
				}
			}
			mems[co.Col].InjectBadSector(a.deviceOffset(0, co.Row))

			got := make([]byte, elemSize)
			if _, err := a.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[:elemSize]) {
				t.Fatal("read-repair returned wrong data")
			}
			if fd := a.FailedDisks(); !slices.Equal(fd, []int{dead}) {
				t.Errorf("FailedDisks = %v, want [%d]", fd, dead)
			}
			if n := a.Stats().SectorsRepaired; n != 1 {
				t.Errorf("SectorsRepaired = %d, want 1", n)
			}
			if _, err := mems[co.Col].ReadAt(make([]byte, elemSize), a.deviceOffset(0, co.Row)); err != nil {
				t.Errorf("sector still bad after repair: %v", err)
			}
		})
	}
}

// TestReadRepairAllocs pins repairElem's fold: with the plan memo and the
// scratch pool warm, rebuilding one element from its parity group reads into
// pooled stripe memory and folds through FoldGroup — no per-cell buffers, no
// map.
func TestReadRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	a, _ := newArrayConc(t, "dcode", 5, 2, WithConcurrency(1))
	data := pattern(int(a.Size()), 57)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	co := a.Code().DataCoord(0)
	dst := make([]byte, elemSize)
	if err := a.repairElem(0, co, dst, trace.Ctx{}); err != nil { // warm the memo and the pool
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data[:elemSize]) {
		t.Fatal("repair rebuilt the wrong bytes")
	}
	xor := a.Snapshot().XOR.DecodeOps
	if avg := testing.AllocsPerRun(20, func() {
		if err := a.repairElem(0, co, dst, trace.Ctx{}); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("one read-repair allocates %.1f times, want 0", avg)
	}
	// One decode XOR per folded cell — the group's other members and its
	// parity — per repair (AllocsPerRun makes one warm-up call).
	plan, err := a.planDegraded(co.Col, []erasure.Coord{co})
	if err != nil {
		t.Fatal(err)
	}
	per := int64(len(a.Code().Groups()[plan.Steps[0].Group].Members))
	if got := a.Snapshot().XOR.DecodeOps - xor; got != 21*per {
		t.Errorf("21 repairs counted %d decode XORs, want %d", got, 21*per)
	}
}

// Scrub heals latent sector errors it walks over, including on parity cells.
func TestScrubHealsBadSectors(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 2)
	if _, err := a.WriteAt(pattern(int(a.Size()), 56), 0); err != nil {
		t.Fatal(err)
	}
	// Parity row 3, column 2, stripe 0 sits at device offset 3*elemSize.
	mems[2].InjectBadSector(int64(3 * elemSize))
	fixed, err := a.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 0 {
		t.Fatalf("scrub re-encoded %d stripes; read-repair should have healed in place", fixed)
	}
	if a.Stats().SectorsRepaired != 1 {
		t.Fatalf("SectorsRepaired = %d, want 1", a.Stats().SectorsRepaired)
	}
	if fixed, _ := a.Scrub(); fixed != 0 {
		t.Fatal("second scrub found damage")
	}
}
