package blockdev

// Asynchronous device submission. An AsyncQueue batches vectored reads and
// writes against a fixed set of target devices and completes them out of
// band: callers submit operations (getting a Completion handle back), kick
// the queue once per logical batch, and wait on the handles. Two engines
// implement the interface:
//
//   - uring_linux.go: a raw, cgo-free io_uring ring — registered files, many
//     coalesced runs submitted with one io_uring_enter, a completion-harvest
//     goroutine dispatching results. Chosen when every target is (an
//     Instrumented wrapper over) a FileDevice and the kernel supports
//     io_uring.
//   - the goroutine-pool engine below (uring_portable semantics): depth
//     workers executing the same vectored calls the synchronous path would
//     issue. Chosen everywhere else — non-Linux builds, kernels without
//     io_uring, and in-memory or modeled (Delayed, Remote) devices, whose
//     behavior lives in Go code a kernel ring cannot execute.
//
// Both engines preserve the synchronous path's per-device accounting: a
// target that is an *Instrumented tallies each completed operation with the
// same ops-equivalent counts, bytes, error and latency accounting as
// ReadVecAtNLink/WriteVecAtNLink (the pool engine simply calls them, so a
// link-capable target also receives each operation's trace link; the ring
// accounts completions through the same wrapper's accounting and serves only
// file-backed targets, which have no link to carry).
//
// Buffer ownership: from Submit until the Completion is waited on, the
// engine owns the submitted buffers — the kernel (or a worker goroutine) may
// still be writing into them. Callers must not recycle, pool, or reuse a
// submitted buffer before Wait returns; the raid scheduler therefore always
// harvests every completion of a batch before its pooled scratch is
// released, even when an early completion already failed.

import (
	"sync"

	"dcode/internal/obs"
	"dcode/internal/trace"
)

// AsyncQueue is the device-submission engine interface. Implementations are
// safe for concurrent submission from multiple goroutines.
type AsyncQueue interface {
	// SubmitReadVec stages one vectored scatter read of target device t
	// (an index into the queue's device set) at offset off. ops is the
	// ops-equivalent element count for Instrumented accounting and l the
	// caller's span link, exactly as in ReadVecAtNLink. The operation is not
	// guaranteed to start until Kick (an engine may start it earlier); the
	// returned handle's Wait blocks until it completes.
	SubmitReadVec(t int, bufs [][]byte, off int64, ops int64, l trace.Link) *Completion
	// SubmitWriteVec is SubmitReadVec for a vectored gather write.
	SubmitWriteVec(t int, bufs [][]byte, off int64, ops int64, l trace.Link) *Completion
	// Kick flushes everything staged to the devices as one batch.
	Kick()
	// Depth is the configured queue depth (maximum useful overlap).
	Depth() int
	// Engine identifies the backend: "uring" or "pool".
	Engine() string
	// Metrics exposes the engine counters.
	Metrics() *obs.AsyncMetrics
	// Close flushes staged work, waits for in-flight operations, and
	// releases engine resources. No Submit or Kick may follow it.
	Close() error
}

// Completion is the handle of one submitted operation.
type Completion struct {
	write bool
	t     int
	bufs  [][]byte
	off   int64
	ops   int64
	link  trace.Link
	start int64 // submit time, an obs.Mono reading; OpLatency spans submit→completion

	n    int
	err  error
	done chan struct{}
}

// Wait blocks until the operation completes and returns its byte count and
// error, with the usual device-error semantics (ErrFailed, ErrBadSector
// pass through unwrapped).
func (c *Completion) Wait() (int, error) {
	<-c.done
	return c.n, c.err
}

// NewAsyncQueue builds the best engine available for the target devices:
// the io_uring ring when every device is file-backed and the kernel
// supports it, the goroutine-pool engine otherwise. depth is the queue
// depth (≤ 0 selects DefaultAsyncDepth).
func NewAsyncQueue(devs []Device, depth int) AsyncQueue {
	if depth <= 0 {
		depth = DefaultAsyncDepth
	}
	if q, err := newURingQueue(devs, depth); err == nil {
		return q
	}
	return NewAsyncPool(devs, depth)
}

// DefaultAsyncDepth is the queue depth used when none is configured.
const DefaultAsyncDepth = 32

// poolQueue is the portable engine: staged submissions flow through a
// buffered channel to depth worker goroutines, each executing the same
// vectored call the synchronous path would have made. Semantically identical
// to the ring by construction — the device methods themselves do the work
// and the accounting.
type poolQueue struct {
	devs  []*Instrumented
	depth int
	m     obs.AsyncMetrics

	mu     sync.Mutex
	staged []*Completion

	ch chan *Completion
	wg sync.WaitGroup
}

// NewAsyncPool builds the goroutine-pool engine directly; NewAsyncQueue
// prefers the ring when available, tests use this to pin pool behavior.
func NewAsyncPool(devs []Device, depth int) AsyncQueue {
	if depth <= 0 {
		depth = DefaultAsyncDepth
	}
	q := &poolQueue{
		devs:  make([]*Instrumented, len(devs)),
		depth: depth,
		ch:    make(chan *Completion, depth),
	}
	for i, d := range devs {
		// Every operation runs through the Instrumented link pair; a bare
		// target gets a private wrapper, whose tallies nobody reads.
		if q.devs[i], _ = d.(*Instrumented); q.devs[i] == nil {
			q.devs[i] = Instrument(d)
		}
	}
	for i := 0; i < depth; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

func (q *poolQueue) Depth() int                 { return q.depth }
func (q *poolQueue) Engine() string             { return "pool" }
func (q *poolQueue) Metrics() *obs.AsyncMetrics { return &q.m }

// SubmitReadVec implements AsyncQueue.
func (q *poolQueue) SubmitReadVec(t int, bufs [][]byte, off int64, ops int64, l trace.Link) *Completion {
	return q.submit(false, t, bufs, off, ops, l)
}

// SubmitWriteVec implements AsyncQueue.
func (q *poolQueue) SubmitWriteVec(t int, bufs [][]byte, off int64, ops int64, l trace.Link) *Completion {
	return q.submit(true, t, bufs, off, ops, l)
}

func (q *poolQueue) submit(write bool, t int, bufs [][]byte, off int64, ops int64, l trace.Link) *Completion {
	c := &Completion{
		write: write, t: t, bufs: bufs, off: off, ops: ops, link: l,
		start: obs.Mono(), done: make(chan struct{}),
	}
	q.m.Submitted.Inc()
	q.mu.Lock()
	q.staged = append(q.staged, c)
	full := len(q.staged) >= q.depth
	q.mu.Unlock()
	if full {
		// The staging queue reached the configured depth: auto-flush, the
		// pool analog of the ring submitting when its SQ fills.
		q.Kick()
	}
	return c
}

// Kick implements AsyncQueue: the staged batch is handed to the workers.
// Dispatch happens outside the staging lock so a full worker channel stalls
// only the kicker, never concurrent submitters.
func (q *poolQueue) Kick() {
	q.mu.Lock()
	batch := q.staged
	q.staged = nil
	q.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	q.m.RecordBatch(len(batch))
	for _, c := range batch {
		select {
		case q.ch <- c:
		default:
			q.m.SQFullStalls.Inc()
			q.ch <- c
		}
	}
}

func (q *poolQueue) worker() {
	defer q.wg.Done()
	for c := range q.ch {
		var n int
		var end int64
		var err error
		if dev := q.devs[c.t]; c.write {
			n, end, err = dev.WriteVecAtNLink(c.bufs, c.off, c.ops, c.link, obs.Mono())
		} else {
			n, end, err = dev.ReadVecAtNLink(c.bufs, c.off, c.ops, c.link, obs.Mono())
		}
		finish(&q.m, c, n, err, end)
	}
}

// finish completes c at end, the obs.Mono reading its device call ended at;
// both engines settle their completions here.
func finish(m *obs.AsyncMetrics, c *Completion, n int, err error, end int64) {
	c.n, c.err = n, err
	m.Completed.Inc()
	m.OpLatency.ObserveNanos(end - c.start)
	close(c.done)
}

// Close implements AsyncQueue.
func (q *poolQueue) Close() error {
	q.Kick()
	close(q.ch)
	q.wg.Wait()
	return nil
}
