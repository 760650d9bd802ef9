package blockdev

// Asynchronous device submission. An AsyncQueue batches vectored reads and
// writes against a fixed set of target devices and completes them out of
// band: callers submit operations (getting a Completion handle back), kick
// the queue once per logical batch, and wait on the handles. Staged
// submissions flow through a buffered channel to depth worker goroutines,
// each executing the same vectored call the synchronous path would issue —
// so the device methods themselves do the work, and a FileDevice marks the
// pages an async read or write moved resident exactly as a synchronous call
// does (mmap.go).
//
// Every operation runs through an *Instrumented target's ReadVecAtNLink or
// WriteVecAtNLink, so the queue preserves the synchronous path's per-device
// accounting — the same ops-equivalent counts, bytes, error and latency
// accounting — and a link-capable target receives each operation's trace
// link.
//
// Buffer ownership: from Submit until the Completion is waited on, the queue
// owns the submitted buffers — a worker goroutine may still be writing into
// them. Callers must not recycle, pool, or reuse a submitted buffer before
// Wait returns; the raid scheduler therefore always harvests every
// completion of a batch before its pooled scratch is released, even when an
// early completion already failed.

import (
	"sync"

	"dcode/internal/obs"
	"dcode/internal/trace"
)

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

// DefaultAsyncDepth is the queue depth used when none is configured.
const DefaultAsyncDepth = 32

// AsyncQueue is the asynchronous submission queue. It is safe for concurrent
// submission from multiple goroutines.
type AsyncQueue struct {
	devs  []*Instrumented
	depth int
	m     obs.AsyncMetrics

	mu     sync.Mutex
	staged []*Completion

	ch chan *Completion
	wg sync.WaitGroup
}

// NewAsyncQueue builds a queue over the target devices with depth workers
// (depth ≤ 0 selects DefaultAsyncDepth).
func NewAsyncQueue(devs []Device, depth int) *AsyncQueue {
	if depth <= 0 {
		depth = DefaultAsyncDepth
	}
	q := &AsyncQueue{
		devs:  make([]*Instrumented, len(devs)),
		depth: depth,
		// One slot per worker: a Kick of up to depth staged ops hands them
		// all over without waiting for a worker to take the previous one.
		ch: make(chan *Completion, depth),
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

// Depth is the configured queue depth (maximum useful overlap).
func (q *AsyncQueue) Depth() int { return q.depth }

// Metrics exposes the queue counters.
func (q *AsyncQueue) Metrics() *obs.AsyncMetrics { return &q.m }

// SubmitReadVec stages one vectored scatter read of target device t (an
// index into the queue's device set) at offset off. ops is the
// ops-equivalent element count for Instrumented accounting and l the
// caller's span link, exactly as in ReadVecAtNLink. The operation starts at
// the next Kick (or when the staged batch reaches the queue depth); the
// returned handle's Wait blocks until it completes.
func (q *AsyncQueue) SubmitReadVec(t int, bufs [][]byte, off int64, ops int64, l trace.Link) *Completion {
	return q.submit(false, t, bufs, off, ops, l)
}

// SubmitWriteVec is SubmitReadVec for a vectored gather write.
func (q *AsyncQueue) SubmitWriteVec(t int, bufs [][]byte, off int64, ops int64, l trace.Link) *Completion {
	return q.submit(true, t, bufs, off, ops, l)
}

func (q *AsyncQueue) submit(write bool, t int, bufs [][]byte, off int64, ops int64, l trace.Link) *Completion {
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
		// The staged batch reached the configured depth: auto-flush.
		q.Kick()
	}
	return c
}

// Kick hands everything staged to the workers as one batch. Dispatch happens
// outside the staging lock so a full worker channel stalls only the kicker,
// never concurrent submitters.
func (q *AsyncQueue) Kick() {
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

func (q *AsyncQueue) worker() {
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
		c.n, c.err = n, err
		q.m.Completed.Inc()
		q.m.OpLatency.ObserveNanos(end - c.start)
		close(c.done)
	}
}

// Close flushes staged work, waits for in-flight operations, and stops the
// workers. No Submit or Kick may follow it.
func (q *AsyncQueue) Close() error {
	q.Kick()
	close(q.ch)
	q.wg.Wait()
	return nil
}
