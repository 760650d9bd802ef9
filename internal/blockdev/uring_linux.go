//go:build linux && (amd64 || arm64)

package blockdev

// A raw, cgo-free io_uring submission engine. The ring is set up with three
// direct syscalls (io_uring_setup / io_uring_enter / io_uring_register — the
// numbers are identical on amd64 and arm64) and two shared-memory rings
// mmapped from the ring fd:
//
//	offset 0x0        the SQ ring: head/tail/mask plus the index array
//	offset 0x10000000 the SQE array: 64-byte submission entries
//	offset 0x8000000  the CQ ring: head/tail/mask plus 16-byte CQEs
//
// All column files are registered up front (IORING_REGISTER_FILES), so SQEs
// reference columns by fixed-file index and the kernel skips the per-op fd
// lookup. Submissions stage SQEs under the queue mutex and one
// io_uring_enter per Kick hands the whole batch to the kernel — many
// coalesced runs, one syscall. A single harvester goroutine blocks in
// io_uring_enter(GETEVENTS) and dispatches completions: per-device
// Instrumented accounting (identical to the synchronous path's
// ReadVecAtNLink/WriteVecAtNLink), then the per-op completion handle.
//
// Buffer lifetime: the kernel reads and writes the submitted iovecs until
// their CQE is reaped, so every submitted operation keeps its iovec slice
// and buffers referenced from the pending table until completion (Go's GC is
// non-moving, so the addresses stay valid). This is the engine-side half of
// the ownership rule documented in async.go: callers must not reuse
// submitted buffers before Wait.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"dcode/internal/obs"
	"dcode/internal/trace"
)

const (
	sysIOUringSetup    = 425
	sysIOUringEnter    = 426
	sysIOUringRegister = 427

	uringOpNop    = 0
	uringOpReadv  = 1
	uringOpWritev = 2

	uringRegisterFiles  = 2
	uringEnterGetevents = 1 << 0
	sqeFixedFile        = 1 << 0

	offSQRing = 0x0
	offCQRing = 0x8000000
	offSQEs   = 0x10000000

	// nopUserData marks the shutdown NOP the harvester exits on.
	nopUserData = ^uint64(0)
)

// uringSQRingOffsets mirrors struct io_sqring_offsets.
type uringSQRingOffsets struct {
	head        uint32
	tail        uint32
	ringMask    uint32
	ringEntries uint32
	flags       uint32
	dropped     uint32
	array       uint32
	resv1       uint32
	userAddr    uint64
}

// uringCQRingOffsets mirrors struct io_cqring_offsets.
type uringCQRingOffsets struct {
	head        uint32
	tail        uint32
	ringMask    uint32
	ringEntries uint32
	overflow    uint32
	cqes        uint32
	flags       uint32
	resv1       uint32
	userAddr    uint64
}

// uringParams mirrors struct io_uring_params.
type uringParams struct {
	sqEntries    uint32
	cqEntries    uint32
	flags        uint32
	sqThreadCPU  uint32
	sqThreadIdle uint32
	features     uint32
	wqFD         uint32
	resv         [3]uint32
	sqOff        uringSQRingOffsets
	cqOff        uringCQRingOffsets
}

// uringSQE mirrors struct io_uring_sqe (64 bytes).
type uringSQE struct {
	opcode      uint8
	flags       uint8
	ioprio      uint16
	fd          int32
	off         uint64
	addr        uint64
	len         uint32
	opFlags     uint32
	userData    uint64
	bufIndex    uint16
	personality uint16
	spliceFDIn  int32
	addr3       uint64
	pad2        uint64
}

// uringCQE mirrors struct io_uring_cqe (16 bytes).
type uringCQE struct {
	userData uint64
	res      int32
	flags    uint32
}

// uringOp is the pending-table entry of one in-flight submission: it pins
// the iovec slice (and, through the Completion, the data buffers) until the
// CQE arrives.
type uringOp struct {
	c      *Completion
	iovs   []syscall.Iovec
	total  int
	kstart int64 // when the SQE was handed to the kernel (flush time), an obs.Mono reading
}

// uringQueue is the io_uring AsyncQueue engine.
type uringQueue struct {
	fd    int
	devs  []uringDev
	depth int
	m     obs.AsyncMetrics

	sqMem  []byte
	cqMem  []byte
	sqeMem []byte

	sqHead  *uint32
	sqTail  *uint32
	sqMask  uint32
	sqCount uint32
	sqArray []uint32
	sqes    []uringSQE

	cqHead *uint32
	cqTail *uint32
	cqMask uint32

	cqes []uringCQE

	// sem bounds in-flight operations to the CQ capacity so a completion
	// can never be dropped to the overflow counter (a dropped CQE would
	// strand its waiter forever).
	sem chan struct{}

	mu      sync.Mutex
	idle    *sync.Cond // signaled when pending drains to empty (Close waits on it)
	pending map[uint64]*uringOp
	staged  []*uringOp
	stagedN uint32
	nextID  uint64
	closed  bool

	wg sync.WaitGroup
}

// uringDev pairs a registered column's accounting wrapper (nil when the
// caller passed a bare device) with its file.
type uringDev struct {
	ins *Instrumented
	f   *FileDevice
}

// uringTarget unwraps one Instrumented layer and requires a FileDevice
// underneath. Any other wrapping (Delayed, Remote, MemDevice) is not
// file-backed from the kernel's point of view — its semantics live in Go
// code a ring cannot execute — so the caller falls back to the pool engine.
func uringTarget(dev Device) (*Instrumented, *FileDevice) {
	ins, _ := dev.(*Instrumented)
	if ins != nil {
		dev = ins.Underlying()
	}
	f, _ := dev.(*FileDevice)
	return ins, f
}

var uringProbe struct {
	once sync.Once
	ok   bool
}

// URingAvailable reports whether the running kernel accepts io_uring_setup
// (false on old kernels, or where seccomp/sysctl policy denies the
// syscall). The probe runs once; NewAsyncQueue uses it to fall back to the
// pool engine.
func URingAvailable() bool {
	uringProbe.once.Do(func() {
		var p uringParams
		fd, _, errno := syscall.Syscall(sysIOUringSetup, 4, uintptr(unsafe.Pointer(&p)), 0)
		if errno == 0 {
			_ = syscall.Close(int(fd))
			uringProbe.ok = true
		}
	})
	return uringProbe.ok
}

// newURingQueue builds the ring engine over the target devices, or reports
// why it cannot (non-file device, kernel without io_uring) so NewAsyncQueue
// can fall back.
func newURingQueue(devs []Device, depth int) (AsyncQueue, error) {
	if !URingAvailable() {
		return nil, fmt.Errorf("blockdev: io_uring not available")
	}
	uds := make([]uringDev, len(devs))
	fds := make([]int32, len(devs))
	for i, d := range devs {
		ins, f := uringTarget(d)
		if f == nil {
			return nil, fmt.Errorf("blockdev: device %d is not file-backed", i)
		}
		uds[i] = uringDev{ins: ins, f: f}
		// In O_DIRECT mode the buffered descriptor is registered: the raid
		// layer submits ordinary heap buffers with no alignment guarantee,
		// which a direct descriptor would reject (see the fallback matrix
		// in DESIGN.md §6g).
		fds[i] = int32(f.f.Fd())
	}
	entries := uint32(8)
	for entries < uint32(depth) && entries < 4096 {
		entries <<= 1
	}
	var p uringParams
	rfd, _, errno := syscall.Syscall(sysIOUringSetup, uintptr(entries), uintptr(unsafe.Pointer(&p)), 0)
	if errno != 0 {
		return nil, fmt.Errorf("blockdev: io_uring_setup: %w", errno)
	}
	q := &uringQueue{
		fd:      int(rfd),
		devs:    uds,
		depth:   depth,
		pending: make(map[uint64]*uringOp),
	}
	q.idle = sync.NewCond(&q.mu)
	if err := q.mmapRings(&p); err != nil {
		_ = syscall.Close(q.fd)
		return nil, err
	}
	q.sem = make(chan struct{}, p.cqEntries)
	if _, _, errno := syscall.Syscall6(sysIOUringRegister, rfd, uringRegisterFiles,
		uintptr(unsafe.Pointer(&fds[0])), uintptr(len(fds)), 0, 0); errno != 0 {
		q.unmapRings()
		_ = syscall.Close(q.fd)
		return nil, fmt.Errorf("blockdev: io_uring_register(FILES): %w", errno)
	}
	runtime.KeepAlive(fds)
	q.wg.Add(1)
	go q.harvest()
	return q, nil
}

// mmapRings maps the SQ ring, SQE array and CQ ring and resolves the
// head/tail/mask pointers from the kernel-reported offsets.
func (q *uringQueue) mmapRings(p *uringParams) error {
	sqSize := int(p.sqOff.array) + int(p.sqEntries)*4
	cqSize := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(uringCQE{}))
	mmap := func(off int64, size int) ([]byte, error) {
		return syscall.Mmap(q.fd, off, size,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	}
	var err error
	if q.sqMem, err = mmap(offSQRing, sqSize); err != nil {
		return fmt.Errorf("blockdev: mmap sq ring: %w", err)
	}
	if q.sqeMem, err = mmap(offSQEs, int(p.sqEntries)*int(unsafe.Sizeof(uringSQE{}))); err != nil {
		q.unmapRings()
		return fmt.Errorf("blockdev: mmap sqes: %w", err)
	}
	if q.cqMem, err = mmap(offCQRing, cqSize); err != nil {
		q.unmapRings()
		return fmt.Errorf("blockdev: mmap cq ring: %w", err)
	}
	q.sqHead = (*uint32)(unsafe.Pointer(&q.sqMem[p.sqOff.head]))
	q.sqTail = (*uint32)(unsafe.Pointer(&q.sqMem[p.sqOff.tail]))
	q.sqMask = *(*uint32)(unsafe.Pointer(&q.sqMem[p.sqOff.ringMask]))
	q.sqCount = p.sqEntries
	q.sqArray = unsafe.Slice((*uint32)(unsafe.Pointer(&q.sqMem[p.sqOff.array])), p.sqEntries)
	q.sqes = unsafe.Slice((*uringSQE)(unsafe.Pointer(&q.sqeMem[0])), p.sqEntries)
	q.cqHead = (*uint32)(unsafe.Pointer(&q.cqMem[p.cqOff.head]))
	q.cqTail = (*uint32)(unsafe.Pointer(&q.cqMem[p.cqOff.tail]))
	q.cqMask = *(*uint32)(unsafe.Pointer(&q.cqMem[p.cqOff.ringMask]))
	q.cqes = unsafe.Slice((*uringCQE)(unsafe.Pointer(&q.cqMem[p.cqOff.cqes])), p.cqEntries)
	return nil
}

func (q *uringQueue) unmapRings() {
	for _, m := range [][]byte{q.sqMem, q.sqeMem, q.cqMem} {
		if m != nil {
			_ = syscall.Munmap(m)
		}
	}
	q.sqMem, q.sqeMem, q.cqMem = nil, nil, nil
}

func (q *uringQueue) Depth() int                 { return q.depth }
func (q *uringQueue) Engine() string             { return "uring" }
func (q *uringQueue) Metrics() *obs.AsyncMetrics { return &q.m }

// SubmitReadVec implements AsyncQueue. The ring serves only FileDevice
// targets, which have no trace link to carry, so l is not kept.
func (q *uringQueue) SubmitReadVec(t int, bufs [][]byte, off int64, ops int64, _ trace.Link) *Completion {
	return q.submit(false, t, bufs, off, ops)
}

// SubmitWriteVec implements AsyncQueue; see SubmitReadVec.
func (q *uringQueue) SubmitWriteVec(t int, bufs [][]byte, off int64, ops int64, _ trace.Link) *Completion {
	return q.submit(true, t, bufs, off, ops)
}

func (q *uringQueue) submit(write bool, t int, bufs [][]byte, off int64, ops int64) *Completion {
	c := &Completion{
		write: write, t: t, bufs: bufs, off: off, ops: ops,
		start: obs.Mono(), done: make(chan struct{}),
	}
	iovs := make([]syscall.Iovec, 0, len(bufs))
	total := 0
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		iov := syscall.Iovec{Base: &b[0]}
		iov.SetLen(len(b))
		iovs = append(iovs, iov)
		total += len(b)
	}
	q.m.Submitted.Inc()
	if len(iovs) == 0 {
		// Nothing to move: complete inline with the same zero-byte result
		// the synchronous vectored path produces.
		finish(&q.m, c, 0, nil, obs.Mono())
		return c
	}
	// Bound in-flight ops to the CQ capacity; when the try-acquire fails,
	// everything staged must reach the kernel first or the completions that
	// would free a slot could never be produced.
	select {
	//lint:ignore gocheck released cross-function: complete() receives from q.sem once per harvested CQE
	case q.sem <- struct{}{}:
	default:
		q.m.SQFullStalls.Inc()
		q.Kick()
		q.sem <- struct{}{}
	}
	op := &uringOp{c: c, iovs: iovs, total: total}
	q.mu.Lock()
	if q.sqSpaceLocked() == 0 {
		// SQ full: hand the filled SQEs to the kernel, which frees every
		// slot (submission consumes SQEs; it does not wait on completions).
		q.m.SQFullStalls.Inc()
		q.flushLocked()
	}
	id := q.nextID
	q.nextID++
	q.pending[id] = op
	q.fillSQELocked(id, op)
	q.staged = append(q.staged, op)
	q.mu.Unlock()
	return c
}

// sqSpaceLocked returns the free SQE slots. Callers hold q.mu.
func (q *uringQueue) sqSpaceLocked() uint32 {
	head := atomic.LoadUint32(q.sqHead)
	return q.sqCount - (atomic.LoadUint32(q.sqTail) - head)
}

// fillSQELocked writes one SQE at the current tail. Callers hold q.mu and
// have ensured a free slot.
func (q *uringQueue) fillSQELocked(id uint64, op *uringOp) {
	tail := atomic.LoadUint32(q.sqTail)
	idx := tail & q.sqMask
	sqe := &q.sqes[idx]
	*sqe = uringSQE{
		opcode:   uringOpReadv,
		flags:    sqeFixedFile,
		fd:       int32(op.c.t),
		off:      uint64(op.c.off),
		addr:     uint64(uintptr(unsafe.Pointer(&op.iovs[0]))),
		len:      uint32(len(op.iovs)),
		userData: id,
	}
	if op.c.write {
		sqe.opcode = uringOpWritev
	}
	q.sqArray[idx] = idx
	atomic.StoreUint32(q.sqTail, tail+1)
	q.stagedN++
}

// Kick implements AsyncQueue: one io_uring_enter submits every staged SQE.
func (q *uringQueue) Kick() {
	q.mu.Lock()
	q.flushLocked()
	q.mu.Unlock()
}

// flushLocked hands the staged SQEs to the kernel. Callers hold q.mu.
func (q *uringQueue) flushLocked() {
	n := q.stagedN
	if n == 0 {
		return
	}
	q.stagedN = 0
	now := obs.Mono()
	for _, op := range q.staged {
		op.kstart = now
	}
	q.staged = q.staged[:0]
	q.m.RecordBatch(int(n))
	q.enter(n)
}

// enter submits n SQEs, retrying EINTR/EAGAIN until the kernel has consumed
// all of them.
func (q *uringQueue) enter(n uint32) {
	var done uint32
	for done < n {
		r1, _, errno := syscall.Syscall6(sysIOUringEnter, uintptr(q.fd),
			uintptr(n-done), 0, 0, 0, 0)
		if errno == syscall.EINTR || errno == syscall.EAGAIN {
			runtime.Gosched()
			continue
		}
		if errno != 0 || r1 == 0 {
			// A hard submission error with valid registered fds does not
			// happen in practice; abandoning the loop keeps the process
			// alive and the stranded ops surface as a hang under test
			// rather than memory corruption.
			return
		}
		done += uint32(r1)
	}
}

// harvest is the completion goroutine: it blocks in
// io_uring_enter(GETEVENTS) until CQEs arrive, drains them, and dispatches
// each op's accounting and completion handle. It exits on the shutdown NOP.
func (q *uringQueue) harvest() {
	defer q.wg.Done()
	for {
		head := atomic.LoadUint32(q.cqHead)
		tail := atomic.LoadUint32(q.cqTail)
		if head == tail {
			_, _, errno := syscall.Syscall6(sysIOUringEnter, uintptr(q.fd),
				0, 1, uringEnterGetevents, 0, 0)
			if errno != 0 && errno != syscall.EINTR {
				return // ring torn down under us
			}
			continue
		}
		for head != tail {
			cqe := q.cqes[head&q.cqMask]
			head++
			atomic.StoreUint32(q.cqHead, head)
			if cqe.userData == nopUserData {
				return
			}
			q.complete(cqe.userData, cqe.res)
		}
	}
}

// complete dispatches one CQE: per-device accounting identical to the
// synchronous ReadVecAtNLink/WriteVecAtNLink path, engine metrics, then the
// waiter.
func (q *uringQueue) complete(id uint64, res int32) {
	q.mu.Lock()
	op, ok := q.pending[id]
	if ok {
		delete(q.pending, id)
		if len(q.pending) == 0 {
			q.idle.Broadcast()
		}
	}
	q.mu.Unlock()
	if !ok {
		return
	}
	var n int
	var err error
	if res < 0 {
		err = syscall.Errno(-res)
	} else {
		n = int(res)
		if n < op.total {
			// Short I/O: completed with an error so the raid layer retries
			// on its synchronous fallback path, which handles resumption.
			err = io.ErrUnexpectedEOF
		}
	}
	var end int64
	switch d := q.devs[op.c.t]; {
	case d.ins == nil:
		end = obs.Mono()
	case op.c.write:
		end = d.ins.accountWrite(op.kstart, n, err, op.c.ops)
	default:
		end = d.ins.accountRead(op.kstart, n, err, op.c.ops)
	}
	// The kernel is done with the iovecs and buffers as of this CQE.
	runtime.KeepAlive(op.iovs)
	<-q.sem
	finish(&q.m, op.c, n, err, end)
}

// Close implements AsyncQueue: flush staged work, wait for every in-flight
// completion, stop the harvester with a NOP, and release the ring.
func (q *uringQueue) Close() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	q.flushLocked()
	for len(q.pending) > 0 {
		q.idle.Wait()
	}
	// Wake the harvester with a NOP it exits on. There is always SQ space:
	// nothing is staged and nothing is pending.
	tail := atomic.LoadUint32(q.sqTail)
	idx := tail & q.sqMask
	q.sqes[idx] = uringSQE{opcode: uringOpNop, userData: nopUserData}
	q.sqArray[idx] = idx
	atomic.StoreUint32(q.sqTail, tail+1)
	q.enter(1)
	q.mu.Unlock()
	q.wg.Wait()
	q.unmapRings()
	return syscall.Close(q.fd)
}
