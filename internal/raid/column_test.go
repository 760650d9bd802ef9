package raid

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"dcode/internal/blockdev"
	"dcode/internal/blockserve"
	"dcode/internal/codes"
	"dcode/internal/obs"
	"dcode/internal/trace"
)

// These tests pin devIO's per-call accounting through what the array
// reports — Snapshot().Devices and the load window — by calling devIO on a
// column directly, as the run issuer, elemIO and writeColumn do.

// colSnap returns column col's device tally and its load-window reads and
// writes.
func colSnap(a *Array, col int) (obs.IOSnapshot, int64, int64) {
	s := a.Snapshot()
	return s.Devices[col], s.Window.Reads[col], s.Window.Writes[col]
}

// TestDevIOCountsAndErrors pins the tally of one-op device calls: reads,
// writes, bytes and latency per call; a failure counts one access and one
// error and passes the device's error through unwrapped; only the called
// column is tallied.
func TestDevIOCountsAndErrors(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 4)
	const col = 1
	bufs := [][]byte{make([]byte, 16)}
	if _, _, err := a.devIO(true, false, col, bufs, 0, 1, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.devIO(false, false, col, bufs, 0, 1, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	mems[col].InjectBadSector(8)
	if _, _, err := a.devIO(false, false, col, bufs, 0, 1, trace.Link{}, obs.Mono()); !errors.Is(err, blockdev.ErrBadSector) {
		t.Fatalf("bad sector must pass through, got %v", err)
	}
	s, _, _ := colSnap(a, col)
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("ops: %+v", s)
	}
	if s.ReadErrors != 1 || s.WriteErrors != 0 {
		t.Fatalf("errors: %+v", s)
	}
	if s.BytesRead != 16 || s.BytesWritten != 16 {
		t.Fatalf("bytes: %d read, %d written, want 16 / 16", s.BytesRead, s.BytesWritten)
	}
	if s.ReadLatency.Count != 2 || s.WriteLatency.Count != 1 {
		t.Fatalf("latency counts: read=%d write=%d", s.ReadLatency.Count, s.WriteLatency.Count)
	}

	mems[col].Fail()
	if _, _, err := a.devIO(true, false, col, bufs, 0, 1, trace.Link{}, obs.Mono()); !errors.Is(err, blockdev.ErrFailed) {
		t.Fatalf("failed device must pass through, got %v", err)
	}
	s, _, _ = colSnap(a, col)
	if s.Writes != 2 || s.WriteErrors != 1 || s.WriteLatency.Count != 2 {
		t.Fatalf("write error not counted: %+v", s)
	}
	for c, d := range a.Snapshot().Devices {
		if c != col && d.Ops() != 0 {
			t.Errorf("column %d tallied %d ops of column %d's calls", c, d.Ops(), col)
		}
	}
}

// TestDevIONOps pins the coalesced-call contract: one device call tallies the
// ops element accesses it stands for, observes latency once, counts the bytes
// that moved, and on error counts a single access plus one error — matching
// the element-wise path, where the first failing element stops the loop.
func TestDevIONOps(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 4)
	const col = 2
	buf := [][]byte{make([]byte, 16)}
	if _, _, err := a.devIO(true, false, col, buf, 0, 4, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.devIO(false, false, col, buf, 0, 4, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	s, _, _ := colSnap(a, col)
	if s.Reads != 4 || s.Writes != 4 {
		t.Fatalf("ops-equivalent tallies: %+v", s)
	}
	if s.BytesRead != 16 || s.BytesWritten != 16 {
		t.Fatalf("bytes tally the transfer: %d read, %d written, want 16 / 16", s.BytesRead, s.BytesWritten)
	}
	if s.ReadLatency.Count != 1 || s.WriteLatency.Count != 1 {
		t.Fatalf("latency observed per call: read=%d write=%d", s.ReadLatency.Count, s.WriteLatency.Count)
	}

	mems[col].Fail()
	if _, _, err := a.devIO(false, false, col, buf, 0, 4, trace.Link{}, obs.Mono()); !errors.Is(err, blockdev.ErrFailed) {
		t.Fatalf("got %v", err)
	}
	s, _, _ = colSnap(a, col)
	if s.Reads != 5 || s.ReadErrors != 1 {
		t.Fatalf("a failed call counts one access and one error: %+v", s)
	}
}

// TestDevIOVecTallies pins a multi-buffer call: it tallies the ops it is
// handed, not its buffer count, in both the column tally and the load
// window; bytes count every buffer; a failed call is one failed access.
func TestDevIOVecTallies(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 4)
	const col = 1
	bufs := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16)}
	if _, _, err := a.devIO(true, false, col, bufs, 0, 3, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.devIO(false, false, col, bufs, 0, 3, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	s, wr, ww := colSnap(a, col)
	if s.Reads != 3 || s.Writes != 3 {
		t.Fatalf("ops-equivalent tallies = %d reads / %d writes, want 3 / 3", s.Reads, s.Writes)
	}
	if s.BytesRead != 48 || s.BytesWritten != 48 {
		t.Fatalf("byte tallies = %d / %d, want 48 / 48", s.BytesRead, s.BytesWritten)
	}
	if wr != 3 || ww != 3 {
		t.Fatalf("window saw %d reads / %d writes, want 3 / 3", wr, ww)
	}
	// A call tallies the ops it is handed, however many buffers it moves.
	if _, _, err := a.devIO(false, false, col, bufs, 0, 1, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	if s, _, _ = colSnap(a, col); s.Reads != 4 {
		t.Fatalf("a one-op three-buffer read tallied %d, want one more read", s.Reads-3)
	}
	// A failed vectored call is one failed access.
	mems[col].Fail()
	if _, _, err := a.devIO(false, false, col, bufs, 0, 3, trace.Link{}, obs.Mono()); !errors.Is(err, blockdev.ErrFailed) {
		t.Fatalf("vec read on failed device: %v", err)
	}
	if s, _, _ = colSnap(a, col); s.Reads != 5 || s.ReadErrors != 1 {
		t.Fatalf("failed vec read tallies = %d reads / %d errors, want 5 / 1", s.Reads, s.ReadErrors)
	}
}

// TestDevIOFeedsLoadWindow pins the load window's share of a call: the same
// direction and access count as the column tally (one for a failure), and
// the returned end stamp is the call's completion, after its start.
func TestDevIOFeedsLoadWindow(t *testing.T) {
	a, mems := newArray(t, "dcode", 5, 4)
	const col = 3
	buf := [][]byte{make([]byte, 256)}
	start := obs.Mono()
	_, end, err := a.devIO(true, false, col, buf, 0, 4, trace.Link{}, start)
	if err != nil {
		t.Fatal(err)
	}
	if end < start {
		t.Fatalf("end %d before start %d", end, start)
	}
	if _, _, err := a.devIO(false, false, col, buf, 0, 1, trace.Link{}, end); err != nil {
		t.Fatal(err)
	}
	mems[col].Fail()
	if _, _, err := a.devIO(false, false, col, buf, 0, 9, trace.Link{}, obs.Mono()); !errors.Is(err, blockdev.ErrFailed) {
		t.Fatalf("got %v", err)
	}
	s, wr, ww := colSnap(a, col)
	if wr != 2 || ww != 4 {
		t.Fatalf("window: %d reads, %d writes, want 2 / 4 (a failure is one access)", wr, ww)
	}
	if wr != s.Reads || ww != s.Writes {
		t.Fatalf("window %d/%d disagrees with the column tally %d/%d", wr, ww, s.Reads, s.Writes)
	}
}

// TestDevIOLendCountsAsRead pins that a lend on a bare MemDevice column is
// accounted exactly as the vectored read of the same range — ops, bytes,
// errors, latency, window, and the device's own stats — and that a wrapper
// embedding a MemDevice, or Delayed, copies instead.
func TestDevIOLendCountsAsRead(t *testing.T) {
	const readCol, lendCol = 0, 1
	a, mems := newArray(t, "dcode", 5, 4)
	buf := [][]byte{make([]byte, 128)}
	for _, bad := range []bool{false, true} {
		if bad {
			mems[readCol].InjectBadSector(100)
			mems[lendCol].InjectBadSector(100)
		}
		_, _, rerr := a.devIO(false, false, readCol, buf, 64, 2, trace.Link{}, obs.Mono())
		view, _, lerr := a.devIO(false, true, lendCol, buf, 64, 2, trace.Link{}, obs.Mono())
		if !errors.Is(lerr, rerr) || (rerr == nil) != (len(view) == len(buf[0])) {
			t.Fatalf("bad sector %v: read %v, lend %d bytes, %v", bad, rerr, len(view), lerr)
		}
		if lerr == nil {
			a.columns[lendCol].mem.Return()
		}
	}
	rs, rwr, rww := colSnap(a, readCol)
	ls, lwr, lww := colSnap(a, lendCol)
	if rs.Reads != ls.Reads || rs.ReadErrors != ls.ReadErrors || rs.BytesRead != ls.BytesRead ||
		rs.ReadLatency.Count != ls.ReadLatency.Count || rs.Writes != 0 || ls.Writes != 0 {
		t.Fatalf("read %+v, lend %+v", rs, ls)
	}
	if rwr != lwr || rww != lww {
		t.Fatalf("window: read %d/%d, lend %d/%d", rwr, rww, lwr, lww)
	}
	if mems[readCol].Stats() != mems[lendCol].Stats() {
		t.Fatalf("device stats: read %+v, lend %+v", mems[readCol].Stats(), mems[lendCol].Stats())
	}

	type embedded struct{ *blockdev.MemDevice }
	for name, dev := range map[string]blockdev.Device{
		"embedding wrapper": embedded{blockdev.NewMem(1 << 12)},
		"Delayed":           &blockdev.Delayed{Device: blockdev.NewMem(1 << 12)},
	} {
		want := pattern(64, 7)
		if _, err := dev.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		c := newColumn(dev)
		a.columns[lendCol] = c
		got := [][]byte{make([]byte, 64)}
		view, _, err := a.devIO(false, true, lendCol, got, 0, 1, trace.Link{}, obs.Mono())
		if err != nil || view != nil || !bytes.Equal(got[0], want) {
			t.Errorf("%s: lend gave a %d-byte view, %v; the copy matches: %v", name, len(view), err, bytes.Equal(got[0], want))
		}
		if s := c.m.Snapshot(); s.Reads != 1 || s.BytesRead != 64 {
			t.Errorf("%s: the copy is tallied as %+v", name, s)
		}
	}
	if newColumn(mems[0]).mem == nil {
		t.Error("a bare MemDevice does not lend")
	}
}

// TestDevIOCarriesLinkOnlyWhenLive pins the link rule: a column with the
// LinkedDevice pair gets the caller's link when it is live, and the plain
// vectored call — no link, nothing to pay for — when it is zero.
func TestDevIOCarriesLinkOnlyWhenLive(t *testing.T) {
	const stripes = 4
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, code.Cols())
	rec := &linkRecorder{MemDevice: blockdev.NewMem(stripes * int64(code.Rows()) * elemSize)}
	for i := range devs {
		devs[i] = blockdev.NewMem(stripes * int64(code.Rows()) * elemSize)
	}
	devs[2] = rec
	a, err := New(code, devs, elemSize, stripes)
	if err != nil {
		t.Fatal(err)
	}
	buf := [][]byte{make([]byte, elemSize)}
	live := trace.Link{Trace: 7, Span: 9}
	for _, write := range []bool{true, false} {
		if _, _, err := a.devIO(write, false, 2, buf, 0, 1, trace.Link{}, obs.Mono()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.devIO(write, false, 2, buf, 0, 1, live, obs.Mono()); err != nil {
			t.Fatal(err)
		}
	}
	// A lend request on a column that does not lend is a read, linked too.
	if _, _, err := a.devIO(false, true, 2, buf, 0, 1, live, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	if len(rec.links) != 3 || rec.ops[0] != true || rec.ops[1] != false || rec.ops[2] != false {
		t.Fatalf("link pair saw ops %v, want [true false false]: only the live-link calls", rec.ops)
	}
	for i, l := range rec.links {
		if l != live {
			t.Fatalf("call %d carried %+v, want %+v", i, l, live)
		}
	}
	if st := rec.Stats(); st.Reads != 3 || st.Writes != 2 {
		t.Fatalf("device served %d reads and %d writes, want 3 / 2", st.Reads, st.Writes)
	}
	if s, _, _ := colSnap(a, 2); s.Reads != 3 || s.Writes != 2 {
		t.Fatalf("column tallied %d reads and %d writes, want 3 / 2", s.Reads, s.Writes)
	}
}

// TestDevIOCountsRemoteOncePerOp pins the contract between a Remote's retry
// loop and the column tally: the Remote retries inside one device call, so
// the column counts exactly one access per logical op, whether the op needed
// retries to succeed or exhausted its budget.
func TestDevIOCountsRemoteOncePerOp(t *testing.T) {
	const stripes = 2
	code := codes.MustNew("dcode", 5)
	size := stripes * int64(code.Rows()) * elemSize
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := blockserve.New(blockdev.NewMem(size), blockserve.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	r, err := blockdev.DialRemote(ln.Addr().String(), blockdev.WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	devs := make([]blockdev.Device, code.Cols())
	for i := range devs {
		devs[i] = blockdev.NewMem(size)
	}
	devs[0] = r
	a, err := New(code, devs, elemSize, stripes)
	if err != nil {
		t.Fatal(err)
	}

	// Succeeds on the second attempt: one logical read.
	r.SetInjector(func(op uint8, attempt int) error {
		if attempt == 0 {
			return errors.New("injected: transient")
		}
		return nil
	})
	buf := [][]byte{make([]byte, elemSize)}
	if _, _, err := a.devIO(false, false, 0, buf, 0, 1, trace.Link{}, obs.Mono()); err != nil {
		t.Fatalf("read: %v", err)
	}
	if s, wr, _ := colSnap(a, 0); s.Reads != 1 || s.ReadErrors != 0 || wr != 1 || s.ReadLatency.Count != 1 {
		t.Fatalf("after a retried success: %d reads, %d errors, %d in the window, %d timed; want 1/0/1/1",
			s.Reads, s.ReadErrors, wr, s.ReadLatency.Count)
	}
	if r.Retries() != 1 {
		t.Fatalf("the Remote retried %d times, want 1", r.Retries())
	}

	// Exhausts the budget: still one logical (failed) read.
	r.SetInjector(func(op uint8, attempt int) error { return errors.New("injected: dead remote") })
	if _, _, err := a.devIO(false, false, 0, buf, 0, 1, trace.Link{}, obs.Mono()); !errors.Is(err, blockdev.ErrFailed) {
		t.Fatalf("read should fail with ErrFailed, got %v", err)
	}
	if s, wr, _ := colSnap(a, 0); s.Reads != 2 || s.ReadErrors != 1 || wr != 2 || s.ReadLatency.Count != 2 {
		t.Fatalf("after an exhausted failure: %d reads, %d errors, %d in the window, %d timed; want 2/1/2/2",
			s.Reads, s.ReadErrors, wr, s.ReadLatency.Count)
	}
}

// BenchmarkColumnRun prices the engine's one device call: a 4 KiB read run
// of a bare MemDevice column, issued bare and through devIO, chained as
// issueRuns chains a stage (each call's end is the next call's start, one
// clock read per call). devIO minus bare ns/op is the accounting's per-call
// tax — the clock read, the column tally and the load window; allocs/op must
// be 0 for both.
func BenchmarkColumnRun(b *testing.B) {
	const size = 4 << 10
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, code.Cols())
	mems := make([]*blockdev.MemDevice, code.Cols())
	for i := range devs {
		mems[i] = blockdev.NewMem(int64(code.Rows()) * size)
		devs[i] = mems[i]
	}
	a, err := New(code, devs, size, 1)
	if err != nil {
		b.Fatal(err)
	}
	bufs := [][]byte{make([]byte, size)}
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mems[0].ReadVecAt(bufs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("devIO", func(b *testing.B) {
		b.ReportAllocs()
		t := obs.Mono()
		for i := 0; i < b.N; i++ {
			var err error
			if _, t, err = a.devIO(false, false, 0, bufs, 0, 1, trace.Link{}, t); err != nil {
				b.Fatal(err)
			}
		}
	})
}
