package blockdev

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dcode/internal/blockserve"
)

// serveMem runs a block server over mem on loopback for the test's lifetime.
func serveMem(t *testing.T, mem *MemDevice) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := blockserve.New(mem, blockserve.Config{})
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
	inst.SetOpHook(func(write bool, ops, bytes int64, _ time.Time) {
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
	if _, err := inst.ReadAt(make([]byte, 256), 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
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
	if _, err := inst.ReadAt(make([]byte, 256), 0); err == nil {
		t.Fatal("ReadAt should fail with the injector pinned on")
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
