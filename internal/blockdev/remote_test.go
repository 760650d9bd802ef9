package blockdev

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcode/internal/blockserve"
	"dcode/internal/obs"
	"dcode/internal/trace"
)

// serveMem runs a block server over b on loopback for the test's lifetime.
func serveMem(t testing.TB, b blockserve.Backend) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := blockserve.New(b, blockserve.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return ln.Addr().String()
}

func dialFast(t *testing.T, addr string) *Remote {
	t.Helper()
	r, err := DialRemote(addr,
		WithRetry(3, time.Millisecond),
		WithRequestTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func TestRemoteRetryRecoversFromTransientFault(t *testing.T) {
	mem := NewMem(8192)
	r := dialFast(t, serveMem(t, mem))
	r.SetInjector(func(op uint8, attempt int) error {
		if attempt == 0 {
			return errors.New("injected: connection reset")
		}
		return nil
	})
	buf := make([]byte, 512)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt should survive a single-attempt fault: %v", err)
	}
	if got := r.Retries(); got != 1 {
		t.Fatalf("Retries() = %d, want 1", got)
	}
}

func TestRemoteRetryExhaustionIsErrFailed(t *testing.T) {
	mem := NewMem(8192)
	r := dialFast(t, serveMem(t, mem))
	r.SetInjector(func(op uint8, attempt int) error {
		return errors.New("injected: dead remote")
	})
	_, err := r.ReadAt(make([]byte, 512), 0)
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("exhausted retries must surface as ErrFailed, got %v", err)
	}
	if got := r.Retries(); got != 2 {
		t.Fatalf("Retries() = %d, want 2 (3 attempts)", got)
	}
}

func TestRemoteMapsServerSentinels(t *testing.T) {
	mem := NewMem(8192)
	r := dialFast(t, serveMem(t, mem))

	mem.InjectBadSector(100)
	_, err := r.ReadAt(make([]byte, 512), 0)
	if !errors.Is(err, ErrBadSector) {
		t.Fatalf("bad sector must map through the wire, got %v", err)
	}

	mem.Fail()
	before := r.Retries()
	_, err = r.ReadAt(make([]byte, 512), 0)
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("failed device must map through the wire, got %v", err)
	}
	// The server answered authoritatively: a protocol error must not consume
	// the retry budget.
	if got := r.Retries(); got != before {
		t.Fatalf("protocol error consumed %d retries", got-before)
	}
}

func TestRemoteRangeErrorIsNotASentinel(t *testing.T) {
	mem := NewMem(4096)
	r := dialFast(t, serveMem(t, mem))
	_, err := r.ReadAt(make([]byte, 512), 4096-8)
	if err == nil {
		t.Fatal("out-of-range read must fail")
	}
	if errors.Is(err, ErrFailed) || errors.Is(err, ErrBadSector) {
		t.Fatalf("range error must stay a plain error, got %v", err)
	}
}

// TestInstrumentedRemoteHookFiresOncePerOp pins the accounting contract
// between the retry loop and the instrumentation layer: the Remote retries
// internally, so Instrumented — the raid layer's per-column tally — must see
// exactly one completed operation per logical op, whether the op needed
// retries to succeed or exhausted its budget.
func TestInstrumentedRemoteHookFiresOncePerOp(t *testing.T) {
	mem := NewMem(8192)
	r := dialFast(t, serveMem(t, mem))
	inst := Instrument(r)

	var hookCalls, hookOps atomic.Int64
	inst.SetOpHook(func(write bool, ops, bytes int64, _ int64) {
		hookCalls.Add(1)
		hookOps.Add(ops)
	})

	// Succeeds on the second attempt: one logical read, one hook firing.
	r.SetInjector(func(op uint8, attempt int) error {
		if attempt == 0 {
			return errors.New("injected: transient")
		}
		return nil
	})
	bufs := [][]byte{make([]byte, 256)}
	if _, _, err := inst.ReadVecAtNLink(bufs, 0, 1, trace.Link{}, obs.Mono()); err != nil {
		t.Fatalf("read: %v", err)
	}
	if hookCalls.Load() != 1 || hookOps.Load() != 1 {
		t.Fatalf("after retried success: hook fired %d times for %d ops, want 1/1",
			hookCalls.Load(), hookOps.Load())
	}
	m := inst.Metrics()
	if m.Reads.Load() != 1 || m.ReadErrors.Load() != 0 {
		t.Fatalf("after retried success: reads=%d errors=%d, want 1/0",
			m.Reads.Load(), m.ReadErrors.Load())
	}

	// Exhausts the budget: still one logical (failed) read, one hook firing.
	r.SetInjector(func(op uint8, attempt int) error {
		return errors.New("injected: dead remote")
	})
	if _, _, err := inst.ReadVecAtNLink(bufs, 0, 1, trace.Link{}, obs.Mono()); err == nil {
		t.Fatal("read should fail with the injector pinned on")
	}
	if hookCalls.Load() != 2 || hookOps.Load() != 2 {
		t.Fatalf("after exhausted failure: hook fired %d times for %d ops, want 2/2",
			hookCalls.Load(), hookOps.Load())
	}
	if m.Reads.Load() != 2 || m.ReadErrors.Load() != 1 {
		t.Fatalf("after exhausted failure: reads=%d errors=%d, want 2/1",
			m.Reads.Load(), m.ReadErrors.Load())
	}
}

// flakyMem fails every other ReadAt with ErrFailed, so ERR and OK responses
// alternate on the wire.
type flakyMem struct {
	*MemDevice
	calls atomic.Int64
}

func (m *flakyMem) ReadAt(p []byte, off int64) (int, error) {
	if m.calls.Add(1)%2 == 0 {
		return 0, ErrFailed
	}
	return m.MemDevice.ReadAt(p, off)
}

// TestRemoteErrMessageSurvivesConnReuse is the regression test for returning
// a connection to the pool before the ERR message was copied out of its read
// buffer: with concurrent ops sharing pooled connections, every ERR must
// still map to its sentinel and every OK read carry its own bytes. Run under
// -race, where the old ordering is also a reported data race.
func TestRemoteErrMessageSurvivesConnReuse(t *testing.T) {
	const workers, opsEach, span = 8, 200, 512
	mem := NewMem(workers * span)
	for w := 0; w < workers; w++ {
		if _, err := mem.WriteAt(bytes.Repeat([]byte{byte(w + 1)}, span), int64(w*span)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := DialRemote(serveMem(t, &flakyMem{MemDevice: mem}), WithPool(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Odd workers scatter through the connection's buffer, even ones
			// receive directly: both ownership paths share the pool.
			got := make([]byte, span)
			bufs := [][]byte{got}
			if w%2 == 1 {
				bufs = [][]byte{got[:100], got[100:]}
			}
			for i := 0; i < opsEach; i++ {
				clear(got)
				_, err := r.ReadVecAt(bufs, int64(w*span))
				switch {
				case err == nil:
					if !bytes.Equal(got, bytes.Repeat([]byte{byte(w + 1)}, span)) {
						t.Errorf("worker %d op %d: read another op's bytes", w, i)
						return
					}
				case !errors.Is(err, ErrFailed):
					t.Errorf("worker %d op %d: ERR lost its sentinel: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// fakeServer answers every request on every connection with what reply
// builds from it, speaking just enough of the protocol for a Remote to dial.
func fakeServer(t *testing.T, reply func(req blockserve.Frame) blockserve.Frame) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				var rbuf, wbuf []byte
				for {
					req, buf, err := blockserve.ReadFrame(conn, rbuf)
					if err != nil {
						return
					}
					rbuf = buf
					resp := reply(req)
					resp.ID = req.ID
					if wbuf, err = blockserve.WriteFrame(conn, wbuf, resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRemoteRejectsOversizedResponse: an OK response carrying more payload
// than the read asked for is a protocol error — nothing past the request is
// written into the caller's buffer, the connection is dropped, and the op
// fails as a transport failure after its retries.
func TestRemoteRejectsOversizedResponse(t *testing.T) {
	addr := fakeServer(t, func(req blockserve.Frame) blockserve.Frame {
		switch req.Type {
		case blockserve.OpStatus:
			return blockserve.Frame{Type: blockserve.RespOK, Off: 1 << 20}
		case blockserve.OpRead:
			return blockserve.Frame{Type: blockserve.RespOK, Data: bytes.Repeat([]byte{0xEE}, int(req.Count)+1)}
		}
		return blockserve.Frame{Type: blockserve.RespOK}
	})
	r, err := DialRemote(addr, WithRetry(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mem := make([]byte, 128) // the reads ask for its first half only
	for _, bufs := range [][][]byte{
		{mem[:64:64]},                // received directly
		{mem[:32:32], mem[32:64:64]}, // scattered from the connection's buffer
	} {
		if _, err := r.ReadVecAt(bufs, 0); !errors.Is(err, ErrFailed) {
			t.Fatalf("oversized response: err = %v, want ErrFailed after retries", err)
		}
		if !bytes.Equal(mem, make([]byte, len(mem))) {
			t.Fatal("oversized response reached the caller's memory")
		}
	}
	if got := r.Retries(); got != 2 {
		t.Fatalf("Retries() = %d, want 2: each op retried once on a fresh connection", got)
	}
	r.mu.Lock()
	idle := len(r.idle)
	r.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d connections pooled after protocol errors, want all dropped", idle)
	}
}

// roundTripFixture is a Remote over loopback to a MemDevice server, primed so
// every connection-owned buffer has reached its working size.
func roundTripFixture(tb testing.TB, size int) (*Remote, []byte) {
	tb.Helper()
	r, err := DialRemote(serveMem(tb, NewMem(1<<20)))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = r.Close() })
	buf := make([]byte, size)
	for i := 0; i < 4; i++ {
		if _, err := r.WriteAt(buf, 0); err != nil {
			tb.Fatal(err)
		}
		if _, err := r.ReadAt(buf, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return r, buf
}

// TestRemoteRoundTripDoesNotAllocatePayloads pins the wire's ownership rules
// from the outside: a 64 KiB read or write over loopback allocates nothing
// payload-sized on either side — client and server share this process, so
// the counters see both. A few small objects per op are tolerated (the
// runtime's own, e.g. a timer); a payload copy would be 64 KiB.
func TestRemoteRoundTripDoesNotAllocatePayloads(t *testing.T) {
	const size, runs, maxBytesPerOp, maxAllocsPerOp = 64 << 10, 200, 512, 2
	r, buf := roundTripFixture(t, size)
	for _, tc := range []struct {
		name string
		op   func() (int, error)
	}{
		{"ReadAt", func() (int, error) { return r.ReadAt(buf, 4096) }},
		{"WriteAt", func() (int, error) { return r.WriteAt(buf, 4096) }},
		{"ReadVecAt", func() (int, error) { return r.ReadVecAt([][]byte{buf[:100], buf[100:]}, 4096) }},
		{"WriteVecAt", func() (int, error) { return r.WriteVecAt([][]byte{buf[:100], buf[100:]}, 4096) }},
	} {
		if _, err := tc.op(); err != nil { // reach this shape's working set
			t.Fatalf("%s: %v", tc.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if n, err := tc.op(); err != nil || n != size {
				t.Fatalf("%s = %d, %v", tc.name, n, err)
			}
		}
		runtime.ReadMemStats(&after)
		bytesPerOp := (after.TotalAlloc - before.TotalAlloc) / runs
		allocsPerOp := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("%s: %d B/op, %.2f allocs/op across both sides", tc.name, bytesPerOp, allocsPerOp)
		if bytesPerOp > maxBytesPerOp || allocsPerOp > maxAllocsPerOp {
			t.Errorf("%s: %d B/op, %.2f allocs/op, want <= %d B and <= %d allocs: a payload is being staged",
				tc.name, bytesPerOp, allocsPerOp, maxBytesPerOp, maxAllocsPerOp)
		}
	}
}

func benchmarkRoundTrip(b *testing.B, write bool) {
	for _, size := range []int{4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			r, buf := roundTripFixture(b, size)
			op := r.ReadAt
			if write {
				op = r.WriteAt
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := op(buf, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemoteRoundTripRead and ...Write time one exchange over loopback
// against a memory backend; with -benchmem the B/op column is the
// zero-payload-allocation property, both sides of the wire included.
func BenchmarkRemoteRoundTripRead(b *testing.B)  { benchmarkRoundTrip(b, false) }
func BenchmarkRemoteRoundTripWrite(b *testing.B) { benchmarkRoundTrip(b, true) }
