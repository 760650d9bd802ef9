package blockdev

import (
	"errors"
	"testing"

	"dcode/internal/obs"
	"dcode/internal/trace"
)

func TestInstrumentedCountsAndErrors(t *testing.T) {
	mem := NewMem(4096)
	dev := Instrument(mem)

	bufs := [][]byte{make([]byte, 512)}
	if _, _, err := dev.WriteVecAtNLink(bufs, 0, 1, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dev.ReadVecAtNLink(bufs, 0, 1, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}

	mem.InjectBadSector(100)
	if _, _, err := dev.ReadVecAtNLink(bufs, 0, 1, trace.Link{}, obs.Mono()); !errors.Is(err, ErrBadSector) {
		t.Fatalf("bad sector must pass through the wrapper, got %v", err)
	}

	s := dev.Metrics().Snapshot()
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("ops: %+v", s)
	}
	if s.ReadErrors != 1 || s.WriteErrors != 0 {
		t.Fatalf("errors: %+v", s)
	}
	if s.BytesRead != 512 || s.BytesWritten != 512 {
		t.Fatalf("bytes: %+v", s)
	}
	if s.ReadLatency.Count != 2 || s.WriteLatency.Count != 1 {
		t.Fatalf("latency counts: read=%d write=%d", s.ReadLatency.Count, s.WriteLatency.Count)
	}

	mem.Fail()
	if _, _, err := dev.WriteVecAtNLink(bufs, 0, 1, trace.Link{}, obs.Mono()); !errors.Is(err, ErrFailed) {
		t.Fatalf("failed device must pass through the wrapper, got %v", err)
	}
	if s := dev.Metrics().Snapshot(); s.WriteErrors != 1 {
		t.Fatalf("write error not counted: %+v", s)
	}

	if dev.Size() != 4096 {
		t.Fatalf("size = %d", dev.Size())
	}
	if dev.Underlying() != Device(mem) {
		t.Fatal("underlying device lost")
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentedNOps checks the coalesced-I/O accounting contract: one
// physical ReadVecAtNLink/WriteVecAtNLink call tallies the element operations
// it replaces,
// observes latency once, and on error counts a single op plus one error —
// matching the element-wise path, where the first failing element stops the
// loop.
func TestInstrumentedNOps(t *testing.T) {
	mem := NewMem(4096)
	dev := Instrument(mem)

	buf := make([]byte, 512)
	if _, _, err := dev.WriteVecAtNLink([][]byte{buf}, 0, 4, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dev.ReadVecAtNLink([][]byte{buf}, 0, 4, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	s := dev.Metrics().Snapshot()
	if s.Reads != 4 || s.Writes != 4 {
		t.Fatalf("ops-equivalent tallies: %+v", s)
	}
	if s.BytesRead != 512 || s.BytesWritten != 512 {
		t.Fatalf("bytes tally actual transfer: %+v", s)
	}
	if s.ReadLatency.Count != 1 || s.WriteLatency.Count != 1 {
		t.Fatalf("latency observed per physical call: read=%d write=%d",
			s.ReadLatency.Count, s.WriteLatency.Count)
	}

	mem.Fail()
	if _, _, err := dev.ReadVecAtNLink([][]byte{buf}, 0, 4, trace.Link{}, obs.Mono()); !errors.Is(err, ErrFailed) {
		t.Fatalf("got %v", err)
	}
	s = dev.Metrics().Snapshot()
	if s.Reads != 5 || s.ReadErrors != 1 {
		t.Fatalf("failed call must count one op and one error: %+v", s)
	}
}

// TestInstrumentedOpHook checks the hook contract the raid layer's load
// window depends on: every completed device call fires it with the right
// direction, the coalesced element-op count, and the bytes that moved;
// failed calls fire as one op so live tallies match the error accounting.
func TestInstrumentedOpHook(t *testing.T) {
	type call struct {
		write bool
		ops   int64
		bytes int64
	}
	mem := NewMem(4096)
	dev := Instrument(mem)
	var calls []call
	var ends []int64
	dev.SetOpHook(func(write bool, ops, bytes int64, end int64) {
		calls = append(calls, call{write, ops, bytes})
		ends = append(ends, end)
	})

	buf := make([]byte, 256)
	start := obs.Mono()
	_, end, err := dev.WriteVecAtNLink([][]byte{buf}, 0, 4, trace.Link{}, start)
	if err != nil {
		t.Fatal(err)
	}
	// The vectored pair hands back the completion stamp it gave the hook.
	if ends[0] != end || end < start {
		t.Fatalf("returned end %d, hook end %d, start %d", end, ends[0], start)
	}
	if _, _, err := dev.ReadVecAtNLink([][]byte{buf}, 0, 1, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	mem.Fail()
	if _, _, err := dev.ReadVecAtNLink([][]byte{buf}, 0, 9, trace.Link{}, obs.Mono()); !errors.Is(err, ErrFailed) {
		t.Fatalf("got %v", err)
	}

	want := []call{
		{write: true, ops: 4, bytes: 256},
		{write: false, ops: 1, bytes: 256},
		{write: false, ops: 1, bytes: 0}, // failure collapses to one op
	}
	if len(calls) != len(want) {
		t.Fatalf("hook fired %d times, want %d: %+v", len(calls), len(want), calls)
	}
	for i, w := range want {
		if calls[i] != w {
			t.Errorf("call %d = %+v, want %+v", i, calls[i], w)
		}
	}

	dev.SetOpHook(nil) // clearing must not panic the hot path
	if _, _, err := dev.WriteVecAtNLink([][]byte{buf}, 0, 1, trace.Link{}, obs.Mono()); !errors.Is(err, ErrFailed) {
		t.Fatalf("got %v", err)
	}
	if len(calls) != len(want) {
		t.Error("cleared hook still fired")
	}
}

// BenchmarkInstrumentedReadVec prices the accounting wrapper: one 4 KiB
// vectored read of a MemDevice, bare and through Instrumented, the latter
// chained as the raid run issuer chains it (each call's end is the next
// call's start, one clock read per call). The difference of the two ns/op is
// the wrapper's per-call tax; allocs/op must be 0 for both.
//
// The hot pair re-reads one 4 KiB buffer, which stays in cache. The cold
// pair walks a 16 MiB column — four times a 4 MiB L2 — in 4 KiB steps, so
// each call moves bytes from further out, and the chained twin restarts its
// clock chain every coldStage calls, as issueRuns does for each stage of a
// stripe task's runs: cold/chained minus cold/bare is the wrapper's tax, the
// per-run clock stamp most of it, where the copy does not hide in cache.
func BenchmarkInstrumentedReadVec(b *testing.B) {
	mem := NewMem(4 << 10)
	bufs := [][]byte{make([]byte, 4<<10)}
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mem.ReadVecAt(bufs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		d := Instrument(mem)
		d.SetOpHook(func(bool, int64, int64, int64) {})
		b.ReportAllocs()
		t := obs.Mono()
		for i := 0; i < b.N; i++ {
			var err error
			if _, t, err = d.ReadVecAtNLink(bufs, 0, 1, trace.Link{}, t); err != nil {
				b.Fatal(err)
			}
		}
	})
	const coldSize, step, coldStage = 16 << 20, 4 << 10, 8
	cold := NewMem(coldSize)
	coldBufs := [][]byte{make([]byte, step)}
	// Write every page first: untouched pages all map the one zero page,
	// which would stay in cache.
	for off := int64(0); off < coldSize; off += step {
		coldBufs[0][0] = byte(off >> 12)
		if _, err := cold.WriteVecAt(coldBufs, off); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold/bare", func(b *testing.B) {
		b.ReportAllocs()
		off := int64(0)
		for i := 0; i < b.N; i++ {
			if _, err := cold.ReadVecAt(coldBufs, off); err != nil {
				b.Fatal(err)
			}
			if off += step; off == coldSize {
				off = 0
			}
		}
	})
	b.Run("cold/chained", func(b *testing.B) {
		d := Instrument(cold)
		d.SetOpHook(func(bool, int64, int64, int64) {})
		b.ReportAllocs()
		off, t := int64(0), obs.Mono()
		for i := 0; i < b.N; i++ {
			if i%coldStage == 0 {
				t = obs.Mono()
			}
			var err error
			if _, t, err = d.ReadVecAtNLink(coldBufs, off, 1, trace.Link{}, t); err != nil {
				b.Fatal(err)
			}
			if off += step; off == coldSize {
				off = 0
			}
		}
	})
}

// TestInstrumentedLend checks that a lend is accounted as the vectored read
// of the same range — ops, bytes, errors, latency, the op hook — and that
// only a bare MemDevice lends: not a wrapper that embeds one, not Delayed.
func TestInstrumentedLend(t *testing.T) {
	type call struct {
		write      bool
		ops, bytes int64
	}
	tally := func(dev *Instrumented) *[]call {
		var calls []call
		dev.SetOpHook(func(write bool, ops, bytes int64, _ int64) { calls = append(calls, call{write, ops, bytes}) })
		return &calls
	}
	rmem, lmem := NewMem(4096), NewMem(4096)
	rdev, ldev := Instrument(rmem), Instrument(lmem)
	rcalls, lcalls := tally(rdev), tally(ldev)
	buf := make([]byte, 1024)
	for _, bad := range []bool{false, true} {
		if bad {
			rmem.InjectBadSector(700)
			lmem.InjectBadSector(700)
		}
		_, _, rerr := rdev.ReadVecAtNLink([][]byte{buf}, 512, 2, trace.Link{}, obs.Mono())
		view, _, lerr := ldev.LendN(len(buf), 512, 2, obs.Mono())
		if !errors.Is(lerr, rerr) || (rerr == nil) != (len(view) == len(buf)) {
			t.Fatalf("bad sector %v: ReadVecAtNLink %v, LendN %d bytes, %v", bad, rerr, len(view), lerr)
		}
		if lerr == nil {
			ldev.Return()
		}
	}
	rs, ls := rdev.Metrics().Snapshot(), ldev.Metrics().Snapshot()
	if rs.Reads != ls.Reads || rs.ReadErrors != ls.ReadErrors || rs.BytesRead != ls.BytesRead ||
		rs.ReadLatency.Count != ls.ReadLatency.Count {
		t.Fatalf("read %+v, lend %+v", rs, ls)
	}
	if len(*rcalls) != 2 || len(*lcalls) != 2 || (*rcalls)[0] != (*lcalls)[0] || (*rcalls)[1] != (*lcalls)[1] {
		t.Fatalf("op hook: read %v, lend %v", *rcalls, *lcalls)
	}
	if rmem.Stats() != lmem.Stats() {
		t.Fatalf("device stats: read %+v, lend %+v", rmem.Stats(), lmem.Stats())
	}

	type embedded struct{ *MemDevice }
	for name, dev := range map[string]Device{
		"embedding wrapper": embedded{lmem},
		"Delayed":           &Delayed{Device: lmem},
	} {
		if Instrument(dev).Lends() {
			t.Errorf("%s lends", name)
		}
	}
	if !ldev.Lends() {
		t.Error("a bare MemDevice does not lend")
	}
}
