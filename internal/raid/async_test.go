package raid

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/trace"
)

func TestAsyncOptionWiring(t *testing.T) {
	a, _ := newArrayConc(t, "dcode", 5, 4)
	if a.AsyncEnabled() {
		t.Fatal("async should be off by default")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close without async: %v", err)
	}

	a, _ = newArrayConc(t, "dcode", 5, 4, WithAsyncIO(16))
	if !a.AsyncEnabled() {
		t.Fatal("WithAsyncIO did not enable the engine")
	}
	s := a.Snapshot()
	if s.Async == nil || s.Async.Depth != 16 {
		t.Fatalf("snapshot async block: %+v", s.Async)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	a, _ = newArrayConc(t, "dcode", 5, 4, WithAsyncIO(0))
	if got := a.Snapshot().Async.Depth; got != blockdev.DefaultAsyncDepth {
		t.Fatalf("default depth = %d, want %d", got, blockdev.DefaultAsyncDepth)
	}
	_ = a.Close()
}

// TestAsyncCoherence drives an identical deterministic workload — aligned and
// unaligned writes and reads, a mid-run disk failure, degraded traffic, a
// rebuild and a scrub — against a synchronous twin and requires bit-identical
// results, bit-identical final device contents, and identical per-device
// ops/bytes tallies: the async scheduler must be invisible except for speed.
func TestAsyncCoherence(t *testing.T) {
	const stripes = 8
	sync, syncMems := newArrayConc(t, "dcode", 7, stripes)
	async, asyncMems := newArrayConc(t, "dcode", 7, stripes, WithAsyncIO(32))
	defer async.Close()

	step := func(name string, fn func(a *Array) ([]byte, error)) {
		t.Helper()
		sres, serr := fn(sync)
		ares, aerr := fn(async)
		if (serr == nil) != (aerr == nil) {
			t.Fatalf("%s: sync err %v, async err %v", name, serr, aerr)
		}
		if !bytes.Equal(sres, ares) {
			t.Fatalf("%s: results diverged", name)
		}
	}

	rng := rand.New(rand.NewSource(42))
	size := sync.Size()
	payload := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)*29 + seed
		}
		return b
	}

	// Fill, then a mixed healthy phase.
	step("fill", func(a *Array) ([]byte, error) {
		_, err := a.WriteAt(payload(int(size), 1), 0)
		return nil, err
	})
	for i := 0; i < 20; i++ {
		off := rng.Int63n(size - 700)
		n := 1 + rng.Intn(600)
		if rng.Intn(2) == 0 {
			p := payload(n, byte(i))
			step("write", func(a *Array) ([]byte, error) {
				_, err := a.WriteAt(p, off)
				return nil, err
			})
		} else {
			step("read", func(a *Array) ([]byte, error) {
				buf := make([]byte, n)
				_, err := a.ReadAt(buf, off)
				return buf, err
			})
		}
	}

	// Mid-run failure, degraded traffic, then rebuild and scrub.
	step("fail", func(a *Array) ([]byte, error) { return nil, a.FailDisk(2) })
	for i := 0; i < 10; i++ {
		off := rng.Int63n(size - 700)
		n := 1 + rng.Intn(600)
		if rng.Intn(2) == 0 {
			p := payload(n, byte(100+i))
			step("degraded-write", func(a *Array) ([]byte, error) {
				_, err := a.WriteAt(p, off)
				return nil, err
			})
		} else {
			step("degraded-read", func(a *Array) ([]byte, error) {
				buf := make([]byte, n)
				_, err := a.ReadAt(buf, off)
				return buf, err
			})
		}
	}
	step("replace", func(a *Array) ([]byte, error) {
		mems := syncMems
		if a == async {
			mems = asyncMems
		}
		mems[2].Replace()
		return nil, nil
	})
	step("rebuild", func(a *Array) ([]byte, error) { return nil, a.Rebuild(2) })
	step("scrub", func(a *Array) ([]byte, error) {
		_, err := a.Scrub()
		return nil, err
	})
	step("verify", func(a *Array) ([]byte, error) {
		buf := make([]byte, size)
		_, err := a.ReadAt(buf, 0)
		return buf, err
	})

	// Device contents must be bit-identical.
	for i := range syncMems {
		sb := make([]byte, syncMems[i].Size())
		ab := make([]byte, asyncMems[i].Size())
		if _, err := syncMems[i].ReadAt(sb, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := asyncMems[i].ReadAt(ab, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, ab) {
			t.Fatalf("device %d contents diverged", i)
		}
	}

	// Per-disk tallies — the paper's I/O-load metric — must be identical.
	ss, as := sync.Snapshot(), async.Snapshot()
	for i := range ss.Devices {
		sd, ad := ss.Devices[i], as.Devices[i]
		if sd.Reads != ad.Reads || sd.Writes != ad.Writes ||
			sd.BytesRead != ad.BytesRead || sd.BytesWritten != ad.BytesWritten ||
			sd.ReadErrors != ad.ReadErrors || sd.WriteErrors != ad.WriteErrors {
			t.Fatalf("device %d tallies diverged:\n sync: r=%d w=%d br=%d bw=%d re=%d we=%d\nasync: r=%d w=%d br=%d bw=%d re=%d we=%d",
				i, sd.Reads, sd.Writes, sd.BytesRead, sd.BytesWritten, sd.ReadErrors, sd.WriteErrors,
				ad.Reads, ad.Writes, ad.BytesRead, ad.BytesWritten, ad.ReadErrors, ad.WriteErrors)
		}
	}
	if as.Async.Submitted == 0 || as.Async.Submitted != as.Async.Completed {
		t.Fatalf("async engine counters: %+v", as.Async)
	}
}

// linkRecorder is a memory column with the LinkedDevice pair: it records the
// direction and trace link of every vectored operation served through it.
type linkRecorder struct {
	*blockdev.MemDevice
	mu    sync.Mutex
	ops   []bool // write?
	links []trace.Link
}

func (d *linkRecorder) note(write bool, l trace.Link) {
	d.mu.Lock()
	d.ops = append(d.ops, write)
	d.links = append(d.links, l)
	d.mu.Unlock()
}

func (d *linkRecorder) ReadVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error) {
	d.note(false, l)
	return d.ReadVecAt(bufs, off)
}

func (d *linkRecorder) WriteVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error) {
	d.note(true, l)
	return d.WriteVecAt(bufs, off)
}

// TestAsyncCarriesTraceLinks pins that the async queue carries each
// operation's trace link: on a traced WithAsyncIO array, every device call a
// link-capable column serves — full-stripe and read-modify-write commits,
// direct and general-path reads — arrives through its link pair with the
// link of the device span that issued it.
func TestAsyncCarriesTraceLinks(t *testing.T) {
	const stripes = 2
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, code.Cols())
	recs := make([]*linkRecorder, code.Cols())
	for i := range devs {
		recs[i] = &linkRecorder{MemDevice: blockdev.NewMem(stripes * int64(code.Rows()) * elemSize)}
		devs[i] = recs[i]
	}
	tr := trace.New(1<<14, 64)
	a, err := New(code, devs, elemSize, stripes, WithAsyncIO(8), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	tr.Enable()

	data := pattern(int(a.Size()), 5)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteAt(data[:100], 10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, a.Size())
	if _, err := a.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadAt(buf[:300], 7); err != nil {
		t.Fatal(err)
	}

	devSpans := make(map[uint64]trace.Span)
	for _, sp := range tr.Spans() {
		if sp.Op == trace.OpDevRead || sp.Op == trace.OpDevWrite {
			devSpans[sp.ID] = sp
		}
	}
	for col, r := range recs {
		st := r.Stats()
		if n := int64(len(r.links)); n == 0 || n != st.Reads+st.Writes {
			t.Fatalf("col %d served %d reads and %d writes, %d of them through the link pair",
				col, st.Reads, st.Writes, n)
		}
		for i, l := range r.links {
			sp, ok := devSpans[l.Span]
			if l.Trace == 0 || !ok || sp.Trace != l.Trace || sp.Disk != int32(col) || (sp.Op == trace.OpDevWrite) != r.ops[i] {
				t.Fatalf("col %d op %d (write=%v) carried link %+v, not the link of its own device span", col, i, r.ops[i], l)
			}
		}
	}
}

// TestAsyncFaultInjection pushes the device fault machinery through the
// async path: a bad sector read-repairs transparently, a dying device is
// marked failed exactly like on the synchronous path, and degraded service
// continues.
func TestAsyncFaultInjection(t *testing.T) {
	const stripes = 4
	a, mems := newArrayConc(t, "dcode", 5, stripes, WithAsyncIO(16))
	defer a.Close()
	data := pattern(int(a.Size()), 3)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	// Latent sector error: the async read falls back to element reads, which
	// repair in place without failing the disk.
	mems[1].InjectBadSector(0)
	got := make([]byte, a.Size())
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-repair returned wrong data")
	}
	if n := a.Stats().SectorsRepaired; n != 1 {
		t.Fatalf("SectorsRepaired = %d, want 1", n)
	}
	if n := len(a.FailedDisks()); n != 0 {
		t.Fatalf("bad sector must not fail the disk; %d failed", n)
	}

	// Whole-device failure discovered mid-read: marked failed, read served
	// degraded, contents still correct.
	mems[3].Fail()
	clear(got)
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong data")
	}
	failed := a.FailedDisks()
	if len(failed) != 1 || failed[0] != 3 {
		t.Fatalf("FailedDisks = %v, want [3]", failed)
	}

	// Writes keep flowing degraded, and a second failure during a write is
	// absorbed best-effort.
	if _, err := a.WriteAt(pattern(256, 9), 128); err != nil {
		t.Fatal(err)
	}
	mems[0].Fail()
	if _, err := a.WriteAt(pattern(256, 11), 512); err != nil {
		t.Fatal(err)
	}
	if n := len(a.FailedDisks()); n != 2 {
		t.Fatalf("FailedDisks = %d, want 2", n)
	}

	// Recovery: replace and rebuild both columns through the async path.
	mems[3].Replace()
	if err := a.Rebuild(3); err != nil {
		t.Fatal(err)
	}
	mems[0].Replace()
	if err := a.Rebuild(0); err != nil {
		t.Fatal(err)
	}
	clear(got)
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	copy(data[128:], pattern(256, 9))
	copy(data[512:], pattern(256, 11))
	if !bytes.Equal(got, data) {
		t.Fatal("post-rebuild contents wrong")
	}
}

// TestAsyncThroughputDelayed gates the perf claim in-memory: on devices with
// a queue-depth service model, batch-submitted stripes overlap their column
// I/O even at concurrency 1, where the synchronous path pays each device
// delay serially. The async run must beat sync by well over the 25%
// EXPERIMENTS.md gates on real hardware models.
func TestAsyncThroughputDelayed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	const (
		stripes = 6
		delay   = 2 * time.Millisecond
		qd      = 32
	)
	build := func(opts ...Option) (*Array, []*blockdev.MemDevice) {
		code := codes.MustNew("dcode", 7)
		devs := make([]blockdev.Device, code.Cols())
		mems := make([]*blockdev.MemDevice, code.Cols())
		devSize := int64(stripes) * int64(code.Rows()) * elemSize
		for i := range devs {
			mems[i] = blockdev.NewMem(devSize)
			devs[i] = &blockdev.Delayed{Device: mems[i], Delay: delay, MaxInflight: qd}
		}
		a, err := New(code, devs, elemSize, stripes, opts...)
		if err != nil {
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

	syncA, _ := build(WithConcurrency(1))
	asyncA, _ := build(WithConcurrency(1), WithAsyncIO(qd))
	defer asyncA.Close()
	seed := pattern(int(syncA.Size()), 5)
	if _, err := syncA.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := asyncA.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}

	syncRead := readVolume(syncA)
	asyncRead := readVolume(asyncA)
	t.Logf("ReadAt: sync %v, async %v (%.2fx)", syncRead, asyncRead, float64(syncRead)/float64(asyncRead))
	if float64(asyncRead)*1.25 > float64(syncRead) {
		t.Fatalf("async ReadAt %v not >=1.25x faster than sync %v", asyncRead, syncRead)
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
	syncA2, syncM2 := build(WithConcurrency(1))
	asyncA2, asyncM2 := build(WithConcurrency(1), WithAsyncIO(qd))
	defer asyncA2.Close()
	if _, err := syncA2.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := asyncA2.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}
	syncReb := rebuild(syncA2, syncM2)
	asyncReb := rebuild(asyncA2, asyncM2)
	t.Logf("Rebuild: sync %v, async %v (%.2fx)", syncReb, asyncReb, float64(syncReb)/float64(asyncReb))
	if float64(asyncReb)*1.25 > float64(syncReb) {
		t.Fatalf("async Rebuild %v not >=1.25x faster than sync %v", asyncReb, syncReb)
	}
}
