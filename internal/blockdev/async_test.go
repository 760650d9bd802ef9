package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dcode/internal/obs"
	"dcode/internal/trace"
)

// asyncProfile is one deterministic vectored-op workload; the parity tests
// replay it against the synchronous vec path and the async queue and
// require identical buffers and identical Instrumented tallies.
type asyncProfile struct {
	name string
	ops  []asyncOp
}

type asyncOp struct {
	write bool
	t     int   // target device
	offs  int64 // device offset
	lens  []int // iovec lengths
	ops   int64 // ops-equivalent count
	seed  byte
}

func asyncProfiles(devCount int) []asyncProfile {
	mk := func(name string, ops ...asyncOp) asyncProfile { return asyncProfile{name: name, ops: ops} }
	return []asyncProfile{
		mk("sequential-read",
			asyncOp{t: 0, offs: 0, lens: []int{64, 64, 64}, ops: 3},
			asyncOp{t: 1 % devCount, offs: 192, lens: []int{128}, ops: 2},
			asyncOp{t: 2 % devCount, offs: 0, lens: []int{256}, ops: 4},
		),
		mk("mixed-rw",
			asyncOp{write: true, t: 0, offs: 0, lens: []int{64, 64}, ops: 2, seed: 7},
			asyncOp{t: 0, offs: 0, lens: []int{128}, ops: 2},
			asyncOp{write: true, t: 1 % devCount, offs: 64, lens: []int{64}, ops: 1, seed: 9},
			asyncOp{t: 1 % devCount, offs: 64, lens: []int{32, 32}, ops: 1},
		),
		mk("column-burst",
			asyncOp{write: true, t: 0, offs: 0, lens: []int{512}, ops: 8, seed: 3},
			asyncOp{write: true, t: 1 % devCount, offs: 0, lens: []int{512}, ops: 8, seed: 4},
			asyncOp{write: true, t: 2 % devCount, offs: 0, lens: []int{512}, ops: 8, seed: 5},
			asyncOp{t: 0, offs: 0, lens: []int{512}, ops: 8},
			asyncOp{t: 1 % devCount, offs: 0, lens: []int{512}, ops: 8},
			asyncOp{t: 2 % devCount, offs: 0, lens: []int{512}, ops: 8},
		),
	}
}

func opBufs(op asyncOp) [][]byte {
	bufs := make([][]byte, len(op.lens))
	for i, n := range op.lens {
		bufs[i] = make([]byte, n)
		if op.write {
			for j := range bufs[i] {
				bufs[i][j] = byte(j)*17 + op.seed + byte(i)
			}
		}
	}
	return bufs
}

func newInstrumentedMems(n int, size int64) ([]Device, []*Instrumented) {
	devs := make([]Device, n)
	ins := make([]*Instrumented, n)
	for i := range devs {
		ins[i] = Instrument(NewMem(size))
		devs[i] = ins[i]
	}
	return devs, ins
}

// tallyOf strips an IOSnapshot down to the deterministic fields the parity
// tests compare (latency histograms vary run to run by construction).
func tallyOf(d *Instrumented) string {
	s := d.Metrics().Snapshot()
	return fmt.Sprintf("r=%d w=%d br=%d bw=%d re=%d we=%d",
		s.Reads, s.Writes, s.BytesRead, s.BytesWritten, s.ReadErrors, s.WriteErrors)
}

// TestAsyncPoolParity replays each workload profile through the synchronous
// ReadVecAtNLink/WriteVecAtNLink path and through the async queue and requires
// bit-identical buffers and identical per-device tallies — the queue must be
// indistinguishable from the path it replaces.
func TestAsyncPoolParity(t *testing.T) {
	for _, prof := range asyncProfiles(3) {
		t.Run(prof.name, func(t *testing.T) {
			_, sins := newInstrumentedMems(3, 1<<16)
			adevs, ains := newInstrumentedMems(3, 1<<16)

			// Synchronous reference.
			syncBufs := make([][][]byte, len(prof.ops))
			for i, op := range prof.ops {
				bufs := opBufs(op)
				syncBufs[i] = bufs
				var err error
				if op.write {
					_, _, err = sins[op.t].WriteVecAtNLink(bufs, op.offs, op.ops, trace.Link{}, obs.Mono())
				} else {
					_, _, err = sins[op.t].ReadVecAtNLink(bufs, op.offs, op.ops, trace.Link{}, obs.Mono())
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			q := NewAsyncQueue(adevs, 4)
			defer q.Close()
			asyncBufs := make([][][]byte, len(prof.ops))
			comps := make([]*Completion, 0, len(prof.ops))
			for i, op := range prof.ops {
				bufs := opBufs(op)
				asyncBufs[i] = bufs
				if op.write {
					comps = append(comps, q.SubmitWriteVec(op.t, bufs, op.offs, op.ops, trace.Link{}))
				} else {
					comps = append(comps, q.SubmitReadVec(op.t, bufs, op.offs, op.ops, trace.Link{}))
				}
				// Writes order-depend on earlier ops in these profiles; drain
				// between ops so the replay is deterministic. Parity is about
				// per-op accounting, not scheduling.
				q.Kick()
				if _, err := comps[i].Wait(); err != nil {
					t.Fatal(err)
				}
			}

			for i := range prof.ops {
				for j := range syncBufs[i] {
					if !bytes.Equal(syncBufs[i][j], asyncBufs[i][j]) {
						t.Fatalf("op %d buf %d differs between sync and async", i, j)
					}
				}
			}
			for c := range sins {
				if s, a := tallyOf(sins[c]), tallyOf(ains[c]); s != a {
					t.Fatalf("device %d tallies differ: sync %s async %s", c, s, a)
				}
			}
			m := q.Metrics().Snapshot()
			if m.Submitted != int64(len(prof.ops)) || m.Completed != m.Submitted || m.Inflight != 0 {
				t.Fatalf("engine counters: %+v", m)
			}
		})
	}
}

// TestAsyncPoolFaultInjection pushes device errors through the async queue:
// a failed device surfaces ErrFailed on the completion, a bad sector
// surfaces ErrBadSector, and the error tallies match what the synchronous
// path would have recorded.
func TestAsyncPoolFaultInjection(t *testing.T) {
	mem := NewMem(1 << 12)
	ins := Instrument(mem)
	q := NewAsyncQueue([]Device{ins}, 2)
	defer q.Close()

	mem.InjectBadSector(10)
	c := q.SubmitReadVec(0, [][]byte{make([]byte, 64)}, 0, 1, trace.Link{})
	q.Kick()
	if _, err := c.Wait(); !errors.Is(err, ErrBadSector) {
		t.Fatalf("bad sector: got %v", err)
	}

	mem.Fail()
	c = q.SubmitReadVec(0, [][]byte{make([]byte, 64)}, 512, 1, trace.Link{})
	q.Kick()
	if _, err := c.Wait(); !errors.Is(err, ErrFailed) {
		t.Fatalf("failed device read: got %v", err)
	}
	c = q.SubmitWriteVec(0, [][]byte{make([]byte, 64)}, 512, 1, trace.Link{})
	q.Kick()
	if _, err := c.Wait(); !errors.Is(err, ErrFailed) {
		t.Fatalf("failed device write: got %v", err)
	}

	s := ins.Metrics().Snapshot()
	if s.ReadErrors != 2 || s.WriteErrors != 1 {
		t.Fatalf("error tallies: %+v", s)
	}
	// An errored vectored call tallies as one operation, like the sync path.
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("op tallies: %+v", s)
	}
}

// TestAsyncAutoKick verifies that staging depth submissions flushes without
// an explicit Kick, the pool analog of a filling submission queue.
func TestAsyncAutoKick(t *testing.T) {
	devs, _ := newInstrumentedMems(1, 1<<12)
	q := NewAsyncQueue(devs, 2)
	defer q.Close()
	c1 := q.SubmitReadVec(0, [][]byte{make([]byte, 8)}, 0, 1, trace.Link{})
	c2 := q.SubmitReadVec(0, [][]byte{make([]byte, 8)}, 8, 1, trace.Link{})
	// Two staged ops reached depth 2: both must complete without Kick.
	if _, err := c1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Wait(); err != nil {
		t.Fatal(err)
	}
	if b := q.Metrics().Snapshot().Batches; b != 1 {
		t.Fatalf("auto-kick batches = %d, want 1", b)
	}
}

// TestAsyncCloseDrains submits a burst and closes: every completion must be
// delivered before Close returns.
func TestAsyncCloseDrains(t *testing.T) {
	devs, _ := newInstrumentedMems(2, 1<<16)
	q := NewAsyncQueue(devs, 8)
	var comps []*Completion
	for i := 0; i < 30; i++ {
		comps = append(comps, q.SubmitReadVec(i%2, [][]byte{make([]byte, 32)}, int64(i*32), 1, trace.Link{}))
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range comps {
		select {
		case <-c.done:
		default:
			t.Fatalf("completion %d not delivered by Close", i)
		}
		if _, err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDelayedMaxInflight pins the queue-depth service model: with k slots,
// n overlapping requests serialize into ceil(n/k) service rounds.
func TestDelayedMaxInflight(t *testing.T) {
	const delay = 20 * time.Millisecond
	run := func(inflight, clients int) time.Duration {
		d := &Delayed{Device: NewMem(1 << 12), Delay: delay, MaxInflight: inflight}
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				buf := make([]byte, 16)
				if _, err := d.ReadAt(buf, int64(i*16)); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		return time.Since(start)
	}

	// 6 clients over 2 slots: at least 3 serial rounds.
	if e := run(2, 6); e < 3*delay {
		t.Fatalf("MaxInflight=2: elapsed %v, want >= %v", e, 3*delay)
	}
	// Unlimited (0): all 6 overlap in roughly one round.
	if e := run(0, 6); e >= 3*delay {
		t.Fatalf("MaxInflight=0: elapsed %v, want < %v (unbounded overlap)", e, 3*delay)
	}
	// MaxInflight=1 fully serializes.
	if e := run(1, 3); e < 3*delay {
		t.Fatalf("MaxInflight=1: elapsed %v, want >= %v", e, 3*delay)
	}
}

// TestAsyncQueueOverlapsDelayed demonstrates the engine's point: staged
// submissions against a queue-depth-modeled device overlap up to the
// configured depth, where serial synchronous calls pay the full sum.
func TestAsyncQueueOverlapsDelayed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	const delay = 15 * time.Millisecond
	const n = 8
	devs := make([]Device, n)
	for i := range devs {
		devs[i] = Instrument(&Delayed{Device: NewMem(1 << 12), Delay: delay, MaxInflight: 32})
	}

	// Synchronous serial reference.
	buf := make([]byte, 16)
	syncStart := time.Now()
	for i := 0; i < n; i++ {
		if _, err := devs[i].ReadVecAt([][]byte{buf}, 0); err != nil {
			t.Fatal(err)
		}
	}
	syncElapsed := time.Since(syncStart)

	q := NewAsyncQueue(devs, 32)
	defer q.Close()
	asyncStart := time.Now()
	comps := make([]*Completion, n)
	for i := range comps {
		comps[i] = q.SubmitReadVec(i, [][]byte{make([]byte, 16)}, 0, 1, trace.Link{})
	}
	q.Kick()
	for _, c := range comps {
		if _, err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	asyncElapsed := time.Since(asyncStart)

	// n serial delays vs one overlapped round: require a conservative 2x.
	if asyncElapsed*2 > syncElapsed {
		t.Fatalf("async %v not faster than sync %v", asyncElapsed, syncElapsed)
	}
}

// FuzzAsyncPoolParity fuzzes op streams through the async queue against the
// synchronous vec path on twin devices: buffers and tallies must match.
func FuzzAsyncPoolParity(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x80, 0x07})
	f.Add([]byte{0xff, 0x00, 0x13, 0x37, 0x99, 0x21})
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) == 0 || len(stream) > 64 {
			t.Skip()
		}
		const size = 1 << 12
		sdev := Instrument(NewMem(size))
		adev := Instrument(NewMem(size))
		q := NewAsyncQueue([]Device{adev}, 2)
		defer q.Close()
		for i := 0; i+2 < len(stream); i += 3 {
			write := stream[i]&1 == 1
			off := int64(stream[i+1]) * 16
			n := int(stream[i+2])%256 + 1
			if off+int64(n) > size {
				n = int(size - off)
			}
			sb, ab := make([]byte, n), make([]byte, n)
			if write {
				for j := range sb {
					sb[j] = stream[i] + byte(j)
				}
				copy(ab, sb)
			}
			var serr, aerr error
			if write {
				_, _, serr = sdev.WriteVecAtNLink([][]byte{sb}, off, 1, trace.Link{}, obs.Mono())
			} else {
				_, _, serr = sdev.ReadVecAtNLink([][]byte{sb}, off, 1, trace.Link{}, obs.Mono())
			}
			var c *Completion
			if write {
				c = q.SubmitWriteVec(0, [][]byte{ab}, off, 1, trace.Link{})
			} else {
				c = q.SubmitReadVec(0, [][]byte{ab}, off, 1, trace.Link{})
			}
			q.Kick()
			_, aerr = c.Wait()
			if (serr == nil) != (aerr == nil) {
				t.Fatalf("op %d: sync err %v, async err %v", i/3, serr, aerr)
			}
			if !bytes.Equal(sb, ab) {
				t.Fatalf("op %d: buffers diverged", i/3)
			}
		}
		if s, a := tallyOf(sdev), tallyOf(adev); s != a {
			t.Fatalf("tallies diverged: sync %s async %s", s, a)
		}
	})
}
