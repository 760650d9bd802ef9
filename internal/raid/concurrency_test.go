package raid

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/erasure"
)

func newArrayConc(t testing.TB, id string, p int, stripes int64, opts ...Option) (*Array, []*blockdev.MemDevice) {
	t.Helper()
	code := codes.MustNew(id, p)
	devs := make([]blockdev.Device, code.Cols())
	mems := make([]*blockdev.MemDevice, code.Cols())
	devSize := stripes * int64(code.Rows()) * elemSize
	for i := range devs {
		mems[i] = blockdev.NewMem(devSize)
		devs[i] = mems[i]
	}
	a, err := New(code, devs, elemSize, stripes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a, mems
}

func TestConcurrencyOption(t *testing.T) {
	a, _ := newArrayConc(t, "dcode", 5, 2)
	if got, want := a.Concurrency(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default Concurrency = %d, want GOMAXPROCS = %d", got, want)
	}
	a, _ = newArrayConc(t, "dcode", 5, 2, WithConcurrency(3))
	if a.Concurrency() != 3 {
		t.Fatalf("Concurrency = %d, want 3", a.Concurrency())
	}
	a, _ = newArrayConc(t, "dcode", 5, 2, WithConcurrency(0), WithConcurrency(-4))
	if got, want := a.Concurrency(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("non-positive bounds should keep the default; Concurrency = %d, want %d", got, want)
	}
}

func TestFanOutVisitsAllAndReportsError(t *testing.T) {
	for _, conc := range []int{1, 2, 4, 9} {
		a, _ := newArrayConc(t, "dcode", 5, 2, WithConcurrency(conc))
		const n = 57
		var mu sync.Mutex
		seen := make([]int, n)
		if err := a.fanOut(n, func(i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("conc=%d: unexpected error %v", conc, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("conc=%d: index %d run %d times", conc, i, c)
			}
		}
		wantErr := blockdev.ErrFailed
		err := a.fanOut(n, func(i int) error {
			if i == 13 {
				return wantErr
			}
			return nil
		})
		if err != wantErr {
			t.Fatalf("conc=%d: fanOut error = %v, want %v", conc, err, wantErr)
		}
	}
}

// TestRoundTripAcrossConcurrency checks that every fan-out bound produces the
// same user-visible data and the same bytes on every device as the fully
// serial array — the coalesced, pipelined path must be indistinguishable from
// the element-wise one.
func TestRoundTripAcrossConcurrency(t *testing.T) {
	const stripes = 6
	ref, refMems := newArrayConc(t, "dcode", 7, stripes, WithConcurrency(1))
	data := pattern(int(ref.Size()), 5)
	if _, err := ref.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{2, 4, 16} {
		a, mems := newArrayConc(t, "dcode", 7, stripes, WithConcurrency(conc))
		if _, err := a.WriteAt(data, 0); err != nil {
			t.Fatalf("conc=%d: %v", conc, err)
		}
		got := make([]byte, a.Size())
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatalf("conc=%d: %v", conc, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("conc=%d: read-back mismatch", conc)
		}
		for i := range mems {
			want := make([]byte, refMems[i].Size())
			have := make([]byte, mems[i].Size())
			if _, err := refMems[i].ReadAt(want, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := mems[i].ReadAt(have, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, have) {
				t.Fatalf("conc=%d: device %d contents differ from serial array", conc, i)
			}
		}
	}
}

// TestWritePathsProduceIdenticalDevices drives the same logical contents
// through the two write strategies — one coalesced full-volume write versus
// many small unaligned RMW writes — and requires byte-identical devices:
// parity and layout must not depend on which physical path ran.
func TestWritePathsProduceIdenticalDevices(t *testing.T) {
	const stripes = 4
	full, fullMems := newArrayConc(t, "dcode", 7, stripes, WithConcurrency(4))
	rmw, rmwMems := newArrayConc(t, "dcode", 7, stripes, WithConcurrency(1))
	data := pattern(int(full.Size()), 9)
	if _, err := full.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// 37 is coprime with the element size, so every chunk boundary is
	// unaligned and the writes go through the read-modify-write path.
	for off := 0; off < len(data); off += 37 {
		end := min(off+37, len(data))
		if _, err := rmw.WriteAt(data[off:end], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range fullMems {
		want := make([]byte, fullMems[i].Size())
		have := make([]byte, rmwMems[i].Size())
		if _, err := fullMems[i].ReadAt(want, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := rmwMems[i].ReadAt(have, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, have) {
			t.Fatalf("device %d: full-stripe and RMW paths left different bytes", i)
		}
	}
}

// TestTalliesIdenticalAcrossConcurrency runs one op sequence at fan-out 1 and
// 4 and requires the observability tallies — per-disk element I/O counts and
// executed XOR volume — to be exactly equal: concurrency and coalescing must
// change scheduling, never accounting.
func TestTalliesIdenticalAcrossConcurrency(t *testing.T) {
	run := func(conc int) Snapshot {
		const stripes = 5
		a, mems := newArrayConc(t, "dcode", 7, stripes, WithConcurrency(conc))
		data := pattern(int(a.Size()), 3)
		if _, err := a.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 3*elemSize+11)
		for off := int64(0); off+int64(len(buf)) < a.Size(); off += 7 * elemSize {
			if _, err := a.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
			if _, err := a.WriteAt(buf, off+13); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.FailDisk(2); err != nil {
			t.Fatal(err)
		}
		mems[2].Replace()
		if err := a.Rebuild(2); err != nil {
			t.Fatal(err)
		}
		return a.Snapshot()
	}
	s1, s4 := run(1), run(4)
	for i := range s1.Devices {
		if s1.Devices[i].Reads != s4.Devices[i].Reads || s1.Devices[i].Writes != s4.Devices[i].Writes {
			t.Errorf("device %d: conc=1 R/W %d/%d, conc=4 %d/%d",
				i, s1.Devices[i].Reads, s1.Devices[i].Writes, s4.Devices[i].Reads, s4.Devices[i].Writes)
		}
		if s1.Devices[i].BytesRead != s4.Devices[i].BytesRead || s1.Devices[i].BytesWritten != s4.Devices[i].BytesWritten {
			t.Errorf("device %d: byte tallies differ across concurrency", i)
		}
	}
	if s1.XOR != s4.XOR {
		t.Errorf("XOR tallies differ: conc=1 %+v, conc=4 %+v", s1.XOR, s4.XOR)
	}
	if s1.Load.CV != s4.Load.CV {
		t.Errorf("load CV differs: %v vs %v", s1.Load.CV, s4.Load.CV)
	}
}

// TestOpsRacingFailDisk hammers the concurrent data path while disks fail and
// a rebuild runs; run under -race this exercises the locking of the stripe
// pipeline against failure discovery. Operations may legitimately fail once
// more than two disks are gone, but never corrupt: the final read-back after
// rebuild must match the last fully-written pattern.
func TestOpsRacingFailDisk(t *testing.T) {
	const stripes = 4
	a, mems := newArrayConc(t, "dcode", 7, stripes, WithConcurrency(4))
	data := pattern(int(a.Size()), 1)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			buf := make([]byte, 2*elemSize+5)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := int64((i * 613) % (int(a.Size()) - len(buf)))
				if i%2 == 0 {
					_, _ = a.ReadAt(buf, off)
				} else {
					_, _ = a.WriteAt(pattern(len(buf), seed+byte(i)), off)
				}
			}
		}(byte(w))
	}

	if err := a.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(4); err != nil {
		t.Fatal(err)
	}
	mems[1].Replace()
	if err := a.Rebuild(1); err != nil {
		t.Fatal(err)
	}
	mems[4].Replace()
	if err := a.Rebuild(4); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Quiesce and verify self-consistency: overwrite with a known pattern and
	// read it back through a degraded-free array.
	final := pattern(int(a.Size()), 77)
	if _, err := a.WriteAt(final, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, a.Size())
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, final) {
		t.Fatal("read-back mismatch after racing failures and rebuilds")
	}
	if n, err := a.Scrub(); err != nil || n != 0 {
		t.Fatalf("scrub after race: fixed=%d err=%v, want 0 and nil", n, err)
	}
}

// TestSteadyStateAllocs pins the allocation-free steady state of the pooled
// serial data path: aligned reads and full-stripe writes must not allocate
// once the pools are warm.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	const stripes = 4
	a, _ := newArrayConc(t, "dcode", 7, stripes, WithConcurrency(1))
	data := pattern(int(a.Size()), 2)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, a.Size())

	// Warm every pool on both paths before measuring.
	for i := 0; i < 3; i++ {
		if _, err := a.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := a.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}); avg >= 1 {
		t.Errorf("aligned ReadAt allocates %.1f/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := a.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}); avg >= 1 {
		t.Errorf("full-stripe WriteAt allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestDegradedReadSteadyStateAllocs pins the degraded read path: with one
// column failed and the plan memo warm, aligned multi-element reads that
// cross the failed column — plan lookup, planned fetch, group folds — must
// not allocate.
func TestDegradedReadSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	a, _ := newArrayConc(t, "dcode", 7, 4, WithConcurrency(1))
	if _, err := a.WriteAt(pattern(int(a.Size()), 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	elem := int64(a.ElemSize())
	buf := make([]byte, 5*elem)
	sweep := func() {
		for off := int64(0); off+int64(len(buf)) <= a.Size(); off += elem {
			if _, err := a.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := a.Stats().DegradedReads
	sweep() // warm the pools and the plan memo
	sweep()
	if a.Stats().DegradedReads == before {
		t.Fatal("sweep never took the degraded path")
	}
	if avg := testing.AllocsPerRun(20, sweep); avg >= 1 {
		t.Errorf("degraded aligned ReadAt sweep allocates %.1f/run in steady state, want 0", avg)
	}
}

// TestDegradedStripeLoadAllocs pins the whole-stripe degraded paths — a
// one-element write with one column down, and a one-element read and write
// with two down — at 0 allocations in steady state: the failed set reaches
// the decoder without a slice of its own, and the decoder's lists come from
// the code's scratch pool. D-Code decodes every double failure by peeling.
func TestDegradedStripeLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	for _, tc := range []struct {
		name  string
		down  []int
		write bool
	}{
		{"write/one-down", []int{2}, true},
		{"read/two-down", []int{1, 3}, false},
		{"write/two-down", []int{1, 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := newArrayConc(t, "dcode", 5, 2, WithConcurrency(1))
			if _, err := a.WriteAt(pattern(int(a.Size()), 5), 0); err != nil {
				t.Fatal(err)
			}
			for _, d := range tc.down {
				if err := a.FailDisk(d); err != nil {
					t.Fatal(err)
				}
			}
			// Element 1 sits on column 1 of D-Code p=5, so the two-down read
			// wants a lost cell.
			buf := make([]byte, elemSize)
			op := func() {
				var err error
				if tc.write {
					_, err = a.WriteAt(buf, elemSize)
				} else {
					_, err = a.ReadAt(buf, elemSize)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			op() // warm the pools
			if avg := testing.AllocsPerRun(50, op); avg != 0 {
				t.Errorf("allocates %.1f/op in steady state, want 0", avg)
			}
		})
	}
}

// TestCoalesceRuns checks the run builder: marked same-column row-adjacent
// cells merge, anything else starts a new run, and runs come column by
// column, down each column.
func TestCoalesceRuns(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 1)
	sc := a.getScratch()
	cells := []erasure.Coord{
		{Row: 2, Col: 1}, {Row: 0, Col: 0}, {Row: 1, Col: 1},
		{Row: 1, Col: 0}, {Row: 4, Col: 1}, {Row: 3, Col: 3},
	}
	clear(sc.seen)
	for _, co := range cells {
		sc.seen[co.Row*a.code.Cols()+co.Col] = true
	}
	runs := a.markedRuns(sc.seen, sc)
	want := []cellRun{
		{col: 0, row: 0, n: 2},
		{col: 1, row: 1, n: 2},
		{col: 1, row: 4, n: 1},
		{col: 3, row: 3, n: 1},
	}
	if len(runs) != len(want) {
		t.Fatalf("markedRuns = %+v, want %+v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("run %d = %+v, want %+v", i, runs[i], want[i])
		}
	}
}

// slowOnceDev counts its vectored reads; when armed, the next one sleeps for
// delay before serving.
type slowOnceDev struct {
	blockdev.Device
	calls atomic.Int64
	armed atomic.Bool
	delay time.Duration
}

func (d *slowOnceDev) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	d.calls.Add(1)
	if d.armed.CompareAndSwap(true, false) {
		time.Sleep(d.delay)
	}
	return d.Device.ReadVecAt(bufs, off)
}

// TestRunChainAttributesEachRun pins the run issuer's timestamp chain: the
// inline runs of one stage share clock reads, each run starting where the
// previous one ended, so a slow device call is charged to its own column's
// latency histogram and to no run after it. Column 0 is issued first, so if
// a run's start were not advanced to the previous run's end, every later
// column would observe the 2 ms too.
func TestRunChainAttributesEachRun(t *testing.T) {
	const delay = 2 * time.Millisecond
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, code.Cols())
	slow := make([]*slowOnceDev, code.Cols())
	for i := range devs {
		slow[i] = &slowOnceDev{Device: blockdev.NewMem(int64(code.Rows()) * elemSize), delay: delay}
		devs[i] = slow[i]
	}
	a, err := New(code, devs, elemSize, 1, WithConcurrency(1))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, a.stripeDataBytes())
	for _, d := range slow {
		d.calls.Store(0)
	}
	slow[0].armed.Store(true)
	if _, err := a.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}

	busy := 0
	for c, d := range slow {
		lat := a.columns[c].m.Snapshot().ReadLatency
		if lat.Count != d.calls.Load() {
			t.Errorf("col %d: %d latency observations for %d device calls", c, lat.Count, d.calls.Load())
		}
		if lat.Count > 0 {
			busy++
		}
		// Observations of at least 2^20 ns (about 1 ms): the buckets from 21 up.
		var long int64
		for _, n := range lat.Buckets[21:] {
			long += n
		}
		switch {
		case c == 0 && (long != 1 || lat.MaxNanos < int64(delay)):
			t.Errorf("col 0: %d observations ≥ 1 ms, max %v; want one ≥ %v", long, time.Duration(lat.MaxNanos), delay)
		case c != 0 && lat.MaxNanos >= int64(time.Millisecond):
			t.Errorf("col %d: max latency %v, want < 1 ms: charged another run's time", c, time.Duration(lat.MaxNanos))
		}
	}
	if slow[0].calls.Load() == 0 || busy < 2 {
		t.Fatalf("read touched %d columns (col 0: %d calls); the test needs col 0 and a run after it", busy, slow[0].calls.Load())
	}
}

// TestFanOutThroughputDelayed gates the overlap the array's fan-out buys on
// slow columns: on devices with a 2 ms per-call delay, an array fanned out
// across its columns overlaps the calls of one stripe task (and of
// independent stripes), where WithConcurrency(1) pays every delay serially.
// Both a whole-volume ReadAt and a Rebuild must run at least 1.25× faster.
func TestFanOutThroughputDelayed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	const (
		stripes = 6
		delay   = 2 * time.Millisecond
	)
	code := codes.MustNew("dcode", 7)
	cols := code.Cols()
	build := func(conc int) (*Array, []*blockdev.MemDevice) {
		devs := make([]blockdev.Device, cols)
		mems := make([]*blockdev.MemDevice, cols)
		devSize := int64(stripes) * int64(code.Rows()) * elemSize
		for i := range devs {
			mems[i] = blockdev.NewMem(devSize)
			devs[i] = &blockdev.Delayed{Device: mems[i], Delay: delay, MaxInflight: 32}
		}
		a, err := New(code, devs, elemSize, stripes, WithConcurrency(conc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.WriteAt(pattern(int(a.Size()), 5), 0); err != nil {
			t.Fatal(err)
		}
		return a, mems
	}
	readVolume := func(a *Array) time.Duration {
		buf := make([]byte, a.Size())
		start := time.Now()
		if _, err := a.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	rebuild := func(a *Array, mems []*blockdev.MemDevice) time.Duration {
		if err := a.FailDisk(2); err != nil {
			t.Fatal(err)
		}
		mems[2].Replace()
		start := time.Now()
		if err := a.Rebuild(2); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	check := func(what string, serial, wide time.Duration) {
		t.Logf("%s: WithConcurrency(1) %v, WithConcurrency(%d) %v (%.2fx)", what, serial, cols, wide, float64(serial)/float64(wide))
		if float64(wide)*1.25 > float64(serial) {
			t.Fatalf("fanned-out %s %v not >=1.25x faster than serial %v", what, wide, serial)
		}
	}

	serial, serialMems := build(1)
	wide, wideMems := build(cols)
	check("ReadAt", readVolume(serial), readVolume(wide))
	check("Rebuild", rebuild(serial, serialMems), rebuild(wide, wideMems))
}
