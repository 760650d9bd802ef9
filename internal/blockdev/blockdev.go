// Package blockdev provides the block-device abstraction the RAID engine
// stores columns on: an in-memory device with fault injection for tests and
// simulations, and a file-backed device for real use.
//
// A Device moves bytes by copy: vectored reads and writes into and out of
// the caller's buffers. A MemDevice can also lend a read-only view of its
// medium (Lend, Return), so a reader that only folds the bytes need not copy
// them first. The raid layer lends only from a bare MemDevice, so a wrapper
// that embeds one still copies, and it tallies each column's accesses itself:
// this package keeps no per-disk accounting.
package blockdev

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrFailed is returned by a device that has been failed (by fault injection
// or a detected error); the RAID layer treats it as a dead disk.
var ErrFailed = errors.New("blockdev: device failed")

// ErrBadSector is returned when a read touches an injected bad sector.
var ErrBadSector = errors.New("blockdev: unreadable sector")

// ErrClosed is returned by a MemDevice after Close: its medium is gone.
var ErrClosed = errors.New("blockdev: device closed")

// Device is a fixed-size random-access block device.
type Device interface {
	// ReadAt fills p from the device starting at off.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt stores p to the device starting at off.
	WriteAt(p []byte, off int64) (int, error)
	// ReadVecAt fills each buffer of bufs, in order, from the contiguous
	// device range starting at off — a scatter read: bufs[0] from off,
	// bufs[1] from off+len(bufs[0]), and so on. It returns the total bytes
	// read. Devices with native vectored support issue one physical access
	// for the whole list; others fall back to one ReadAt per buffer.
	ReadVecAt(bufs [][]byte, off int64) (int, error)
	// WriteVecAt stores each buffer of bufs, in order, to the contiguous
	// device range starting at off — a gather write — returning the total
	// bytes written.
	WriteVecAt(bufs [][]byte, off int64) (int, error)
	// Size returns the device capacity in bytes.
	Size() int64
	// Close releases the device.
	Close() error
}

// Stats counts device accesses; useful to check I/O claims experimentally.
type Stats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
}

// MemDevice is an in-memory Device with fault injection. It is safe for
// concurrent use.
type MemDevice struct {
	mu         sync.Mutex
	m          *media   // nil once closed
	loans      int      // views lent and not yet returned (Lend, Return)
	retired    []*media // media closed or replaced under a loan, released at the last Return
	size       int64
	failed     bool
	bad        map[int64]bool // offsets (byte granularity ranges rounded by caller) marked unreadable
	writeLimit int64          // -1: unlimited; otherwise remaining persisted writes
	stats      Stats
}

// media is a MemDevice's storage: buf is the whole medium. A medium of at
// least one huge page is a mapping of its own on Linux (mem_linux.go), which
// release unmaps; a finalizer on the holder releases a medium whose device
// was dropped without Close.
type media struct {
	buf    []byte
	mapped bool
}

// NewMem allocates a zeroed in-memory device of the given size.
func NewMem(size int64) *MemDevice {
	if size < 0 {
		panic(fmt.Sprintf("blockdev: negative size %d", size))
	}
	return &MemDevice{m: newMedia(size), size: size, bad: make(map[int64]bool), writeLimit: -1}
}

// SetWriteLimit models a power loss with a volatile write cache: the next n
// WriteAt calls persist normally, and every call after that reports success
// without persisting anything. Pass a negative n to lift the limit.
func (d *MemDevice) SetWriteLimit(n int64) {
	d.mu.Lock()
	d.writeLimit = n
	d.mu.Unlock()
}

// checkRange rejects a request of n bytes at off that does not lie wholly
// inside a device of size bytes. It never forms off+n, which overflows for
// an offset near the top of int64.
func checkRange(n int, off, size int64) error {
	if off < 0 || int64(n) > size || off > size-int64(n) {
		return fmt.Errorf("blockdev: %d bytes at %d outside device of %d bytes", n, off, size)
	}
	return nil
}

// usable reports why the device cannot serve a request: closed or failed.
func (d *MemDevice) usable() error {
	if d.m == nil {
		return ErrClosed
	}
	if d.failed {
		return ErrFailed
	}
	return nil
}

// badInRange reports whether any injected bad sector falls in [off, off+n).
func (d *MemDevice) badInRange(n int, off int64) bool {
	if len(d.bad) == 0 {
		return false
	}
	for b := range d.bad {
		if b >= off && b < off+int64(n) {
			return true
		}
	}
	return false
}

// checkRead reports why n bytes at off cannot be read: the device is closed
// or failed, the range is outside it, or it holds a bad sector.
func (d *MemDevice) checkRead(n int, off int64) error {
	if err := d.usable(); err != nil {
		return err
	}
	if err := checkRange(n, off, d.size); err != nil {
		return err
	}
	if d.badInRange(n, off) {
		return ErrBadSector
	}
	return nil
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRead(len(p), off); err != nil {
		return 0, err
	}
	copy(p, d.m.buf[off:])
	d.stats.Reads++
	d.stats.BytesRead += int64(len(p))
	return len(p), nil
}

// ReadVecAt implements Device natively: one physical access (one Stats read)
// scattering the contiguous range at off into bufs, with the same failure and
// bad-sector semantics as a single ReadAt of the whole range.
func (d *MemDevice) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	total := VecLen(bufs)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRead(total, off); err != nil {
		return 0, err
	}
	n := 0
	for _, b := range bufs {
		n += copy(b, d.m.buf[off+int64(n):])
	}
	d.stats.Reads++
	d.stats.BytesRead += int64(total)
	return total, nil
}

// Lend is a ReadVecAt of n bytes at off that hands back a view of the
// medium instead of copying it: the same checks and failures (ErrClosed,
// ErrFailed, a range outside the device, ErrBadSector) and the same Stats —
// one read of n bytes. The view is read-only, and it reads whatever the
// medium holds, so the caller keeps writers off the range while it reads
// (the raid layer holds the stripe). Every successful Lend is matched by one
// Return, on this device, once the view is no longer read. A Close or
// Replace while views are out leaves them readable: the medium they point
// into is released at the last Return.
func (d *MemDevice) Lend(n int, off int64) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRead(n, off); err != nil {
		return nil, err
	}
	d.loans++
	d.stats.Reads++
	d.stats.BytesRead += int64(n)
	end := off + int64(n)
	return d.m.buf[off:end:end], nil
}

// Return ends one loan of Lend. The last Return releases the media a Close
// or Replace retired while views were out.
func (d *MemDevice) Return() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.loans == 0 {
		panic("blockdev: Return without a loan")
	}
	d.loans--
	if d.loans > 0 {
		return
	}
	for _, m := range d.retired {
		// A munmap of a mapping of our own fails only on a corrupted
		// address; the loan is over either way.
		_ = m.release()
	}
	d.retired = nil
}

// Loans returns how many views Lend has handed out that are not yet
// returned.
func (d *MemDevice) Loans() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.loans
}

// WriteAt implements Device. Writing over a bad sector heals it, as
// rewriting a real sector remaps it.
func (d *MemDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return 0, err
	}
	if err := checkRange(len(p), off, d.size); err != nil {
		return 0, err
	}
	if d.writeLimit == 0 {
		// Lost in the volatile cache: report success, persist nothing.
		d.stats.Writes++
		d.stats.BytesWritten += int64(len(p))
		return len(p), nil
	}
	if d.writeLimit > 0 {
		d.writeLimit--
	}
	copy(d.m.buf[off:], p)
	d.healRange(len(p), off)
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(p))
	return len(p), nil
}

// healRange heals bad sectors overwritten by [off, off+n).
func (d *MemDevice) healRange(n int, off int64) {
	if len(d.bad) == 0 {
		return
	}
	for b := range d.bad {
		if b >= off && b < off+int64(n) {
			delete(d.bad, b)
		}
	}
}

// WriteVecAt implements Device natively: one physical access (one Stats
// write, one write-limit charge) gathering bufs into the contiguous range at
// off, with the same failure, volatile-cache, and sector-healing semantics as
// a single WriteAt of the whole range.
func (d *MemDevice) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	total := VecLen(bufs)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usable(); err != nil {
		return 0, err
	}
	if err := checkRange(total, off, d.size); err != nil {
		return 0, err
	}
	if d.writeLimit == 0 {
		d.stats.Writes++
		d.stats.BytesWritten += int64(total)
		return total, nil
	}
	if d.writeLimit > 0 {
		d.writeLimit--
	}
	n := 0
	for _, b := range bufs {
		n += copy(d.m.buf[off+int64(n):], b)
	}
	d.healRange(total, off)
	d.stats.Writes++
	d.stats.BytesWritten += int64(total)
	return total, nil
}

// Size implements Device.
func (d *MemDevice) Size() int64 { return d.size }

// Close implements Device: every later access returns ErrClosed. The medium
// is released now, or at the last Return when views of it are still lent.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.m
	if m == nil {
		return nil
	}
	d.m = nil
	if d.loans > 0 {
		d.retired = append(d.retired, m)
		return nil
	}
	return m.release()
}

// Fail makes every subsequent access return ErrFailed.
func (d *MemDevice) Fail() {
	d.mu.Lock()
	d.failed = true
	d.mu.Unlock()
}

// Replace zeroes the medium in place (a replacement disk) and clears the
// failure state, bad sectors, any write limit and the counters; contents are
// lost. While views are lent, it swaps in a fresh medium instead, so the
// views keep the old bytes until their Return. A closed device stays closed.
func (d *MemDevice) Replace() {
	d.mu.Lock()
	switch {
	case d.m == nil:
	case d.loans > 0:
		d.retired = append(d.retired, d.m)
		d.m = newMedia(d.size)
	default:
		clear(d.m.buf)
	}
	d.failed = false
	d.writeLimit = -1
	clear(d.bad)
	d.stats = Stats{}
	d.mu.Unlock()
}

// InjectBadSector marks the byte at off unreadable until it is rewritten.
func (d *MemDevice) InjectBadSector(off int64) {
	d.mu.Lock()
	d.bad[off] = true
	d.mu.Unlock()
}

// Stats returns a snapshot of the access counters.
func (d *MemDevice) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Corrupt flips a byte in place without going through WriteAt, simulating
// silent media corruption for scrub tests.
func (d *MemDevice) Corrupt(off int64) {
	d.mu.Lock()
	if d.m != nil && off >= 0 && off < d.size {
		d.m.buf[off] ^= 0xFF
	}
	d.mu.Unlock()
}

// FileDevice is a Device backed by a file. On Linux the file is also mapped,
// and a request whose pages have all been through the descriptor before is a
// copy to or from the mapping (see mmap.go); every other request goes through
// the descriptor.
type FileDevice struct {
	f    *os.File
	size int64

	// Shared mapping (Linux; nil elsewhere or when the file cannot be
	// mapped): mem is the whole file, res one residency flag per 4 KiB page.
	mem []byte
	res []atomic.Bool
}

// OpenFile creates (truncating to size) or opens a file-backed device and,
// on Linux, maps it.
func OpenFile(path string, size int64) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	d := &FileDevice{f: f, size: size}
	d.mapFile()
	return d, nil
}

// ReadAt implements Device. A range outside the device is refused, as on a
// MemDevice.
func (d *FileDevice) ReadAt(p []byte, off int64) (int, error) {
	if err := checkRange(len(p), off, d.size); err != nil {
		return 0, err
	}
	if d.resident(off, len(p)) {
		return d.mapCopy([][]byte{p}, off, false)
	}
	n, err := d.f.ReadAt(p, off)
	d.markResident(off, n)
	return n, err
}

// WriteAt implements Device. A range outside the device is refused, so a
// write never grows the file.
func (d *FileDevice) WriteAt(p []byte, off int64) (int, error) {
	if err := checkRange(len(p), off, d.size); err != nil {
		return 0, err
	}
	if d.resident(off, len(p)) {
		return d.mapCopy([][]byte{p}, off, true)
	}
	n, err := d.f.WriteAt(p, off)
	d.markResident(off, n)
	return n, err
}

// Size implements Device.
func (d *FileDevice) Size() int64 { return d.size }

// Sync flushes the backing file to stable storage — the mapping's dirty
// pages (msync), then the file (fsync); the network block server maps the
// protocol's FLUSH op to it in column mode.
func (d *FileDevice) Sync() error {
	if err := d.msyncFile(); err != nil {
		return err
	}
	return d.f.Sync()
}

// Close implements Device: it unmaps the file and closes its descriptor.
func (d *FileDevice) Close() error {
	return errors.Join(d.unmapFile(), d.f.Close())
}

// Delayed wraps a Device with a two-term service-time model per physical
// call: a fixed positioning cost (Delay — seek plus rotational latency) and a
// per-byte transfer cost (PerByte). It makes I/O scheduling measurable on
// fast backends: a MemDevice completes in nanoseconds, so only modeled
// latency exposes what the array's concurrency, coalescing, and vectoring
// actually buy. A coalesced or vectored run reaches the wrapped device as one
// physical call, so it pays the positioning cost once — but, unlike the old
// flat per-call model, it still pays the transfer cost for every byte moved:
// an 8-element run is no longer priced the same as a 1-element read, which
// had overstated coalescing and hidden the cost of moving extra bytes.
//
// MaxInflight adds the third term of a real device: an internal queue depth.
// Up to MaxInflight calls serve their modeled time concurrently — like the
// overlapping command queue of an NCQ disk or NVMe namespace — and calls
// beyond it queue until a slot frees. Zero (or negative) keeps the historic
// unlimited-overlap behavior. The model is what makes the array's fan-out
// measurable in memory: a serial caller can never hold more than one slot
// busy, while calls fanned out across goroutines fill the queue and pay the
// positioning cost of a whole batch once in wall-clock terms.
type Delayed struct {
	Device
	Delay       time.Duration // per-call positioning cost
	PerByte     time.Duration // per-byte transfer cost
	MaxInflight int           // service slots that may overlap; ≤ 0 is unlimited

	semOnce sync.Once
	sem     chan struct{}
}

func (d *Delayed) sleep(n int) {
	if d.MaxInflight > 0 {
		d.semOnce.Do(func() { d.sem = make(chan struct{}, d.MaxInflight) })
		d.sem <- struct{}{}
		defer func() { <-d.sem }()
	}
	time.Sleep(d.Delay + time.Duration(n)*d.PerByte)
}

// ReadAt implements Device, sleeping one service time first.
func (d *Delayed) ReadAt(p []byte, off int64) (int, error) {
	d.sleep(len(p))
	return d.Device.ReadAt(p, off)
}

// WriteAt implements Device, sleeping one service time first.
func (d *Delayed) WriteAt(p []byte, off int64) (int, error) {
	d.sleep(len(p))
	return d.Device.WriteAt(p, off)
}

// ReadVecAt implements Device: one physical call, one positioning cost,
// transfer cost for the total bytes.
func (d *Delayed) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	d.sleep(VecLen(bufs))
	return d.Device.ReadVecAt(bufs, off)
}

// WriteVecAt implements Device; see ReadVecAt.
func (d *Delayed) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	d.sleep(VecLen(bufs))
	return d.Device.WriteVecAt(bufs, off)
}
