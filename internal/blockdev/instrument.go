package blockdev

import (
	"time"

	"dcode/internal/obs"
	"dcode/internal/trace"
)

// LinkedDevice is implemented by devices that can carry a trace link with
// each operation — today only Remote, which stamps the link onto the wire so
// the serving node's spans join the caller's trace. Local devices have
// nothing to propagate to.
type LinkedDevice interface {
	ReadAtLink(p []byte, off int64, l trace.Link) (int, error)
	WriteAtLink(p []byte, off int64, l trace.Link) (int, error)
	ReadVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error)
	WriteVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error)
}

// Instrumented wraps a Device and records every operation into an
// obs.IOMetrics: op and byte counts, error counts, and per-op latency
// histograms. Errors are passed through unwrapped, so errors.Is checks on
// ErrFailed / ErrBadSector keep working through the wrapper.
type Instrumented struct {
	dev    Device
	linked LinkedDevice // dev's link-threading view, nil if unsupported
	m      obs.IOMetrics
	hook   OpHook
}

// OpHook observes every completed device operation: write selects the write
// path, ops is the element-access count the call stands for (coalesced calls
// carry the ops they replaced), bytes is what actually moved, and end is the
// completion time the latency was measured at — handed on so observers need
// no clock read of their own. The raid layer uses it to feed the windowed
// per-disk load tracker without blockdev knowing which column it is.
type OpHook func(write bool, ops, bytes int64, end time.Time)

// Instrument wraps dev. The wrapper adds a few atomic ops and two clock reads
// per call — negligible next to any real device access.
func Instrument(dev Device) *Instrumented {
	lb, _ := dev.(LinkedDevice)
	return &Instrumented{dev: dev, linked: lb}
}

// Metrics returns the wrapper's metric set; callers snapshot or reset it.
func (d *Instrumented) Metrics() *obs.IOMetrics { return &d.m }

// SetOpHook installs h (nil clears it). Set it before the device serves
// traffic — the field is read without synchronization on the hot path.
func (d *Instrumented) SetOpHook(h OpHook) { d.hook = h }

// Underlying returns the wrapped device.
func (d *Instrumented) Underlying() Device { return d.dev }

// ReadAt implements Device.
func (d *Instrumented) ReadAt(p []byte, off int64) (int, error) {
	return d.ReadAtN(p, off, 1)
}

// ReadAtN performs one physical read that stands in for ops element-sized
// accesses the caller coalesced into it. The read counter advances by ops on
// success so per-disk load tallies stay identical to the uncoalesced path
// (the paper's I/O-load accounting counts element accesses, not syscalls);
// the byte counter advances by the bytes actually moved, which is the same
// either way. Latency is observed once — it is one device access. A failed
// coalesced read is tallied as a single failed access, matching the
// uncoalesced path, which stopped at its first failing element.
func (d *Instrumented) ReadAtN(p []byte, off int64, ops int64) (int, error) {
	start := time.Now()
	n, err := d.dev.ReadAt(p, off)
	d.AccountRead(start, n, err, ops)
	return n, err
}

// AccountRead applies ReadAtN's exact accounting to a read that was executed
// outside the wrapper: the async engines drive the raw device (or its file
// descriptor) directly and report the outcome here, so per-disk tallies stay
// identical whichever path served the bytes. start is when the operation was
// handed to the device, so the observed latency includes any time it queued
// there.
func (d *Instrumented) AccountRead(start time.Time, n int, err error, ops int64) {
	end := time.Now()
	d.m.ReadLatency.Observe(end.Sub(start))
	if err != nil {
		d.m.Reads.Inc()
		d.m.ReadErrors.Inc()
		ops = 1
	} else {
		d.m.Reads.Add(ops)
	}
	d.m.BytesRead.Add(int64(n))
	if d.hook != nil {
		d.hook(false, ops, int64(n), end)
	}
}

// AccountWrite is AccountRead for the write path; see WriteAtN.
func (d *Instrumented) AccountWrite(start time.Time, n int, err error, ops int64) {
	end := time.Now()
	d.m.WriteLatency.Observe(end.Sub(start))
	if err != nil {
		d.m.Writes.Inc()
		d.m.WriteErrors.Inc()
		ops = 1
	} else {
		d.m.Writes.Add(ops)
	}
	d.m.BytesWritten.Add(int64(n))
	if d.hook != nil {
		d.hook(true, ops, int64(n), end)
	}
}

// ReadVecAt implements Device, tallied as one logical operation like ReadAt;
// the raid layer uses ReadVecAtN to carry the real ops-equivalent count.
func (d *Instrumented) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	return d.ReadVecAtN(bufs, off, 1)
}

// ReadVecAtN is one physical scatter read standing in for ops element-sized
// accesses, with exactly ReadAtN's accounting: ops reads on success, one
// failed read on error, bytes as moved, latency observed once.
func (d *Instrumented) ReadVecAtN(bufs [][]byte, off int64, ops int64) (int, error) {
	start := time.Now()
	n, err := d.dev.ReadVecAt(bufs, off)
	d.AccountRead(start, n, err, ops)
	return n, err
}

// WriteAt implements Device.
func (d *Instrumented) WriteAt(p []byte, off int64) (int, error) {
	return d.WriteAtN(p, off, 1)
}

// WriteVecAt implements Device; see ReadVecAt.
func (d *Instrumented) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	return d.WriteVecAtN(bufs, off, 1)
}

// WriteVecAtN is WriteVecAt tallied as ops coalesced element writes; see
// ReadVecAtN.
func (d *Instrumented) WriteVecAtN(bufs [][]byte, off int64, ops int64) (int, error) {
	start := time.Now()
	n, err := d.dev.WriteVecAt(bufs, off)
	d.AccountWrite(start, n, err, ops)
	return n, err
}

// WriteAtN is WriteAt tallied as ops coalesced element writes; see ReadAtN.
func (d *Instrumented) WriteAtN(p []byte, off int64, ops int64) (int, error) {
	start := time.Now()
	n, err := d.dev.WriteAt(p, off)
	d.AccountWrite(start, n, err, ops)
	return n, err
}

// Link-carrying variants: identical accounting to their plain counterparts,
// but when the wrapped device is a LinkedDevice (a Remote) the caller's span
// link travels with the operation. On local devices — or with a dead link —
// they compile down to the plain call, so the non-traced path pays nothing.

// ReadAtLink is ReadAt carrying the caller's span link.
func (d *Instrumented) ReadAtLink(p []byte, off int64, l trace.Link) (int, error) {
	return d.ReadAtNLink(p, off, 1, l)
}

// ReadAtNLink is ReadAtN carrying the caller's span link.
func (d *Instrumented) ReadAtNLink(p []byte, off int64, ops int64, l trace.Link) (int, error) {
	if d.linked == nil || l.Trace == 0 {
		return d.ReadAtN(p, off, ops)
	}
	start := time.Now()
	n, err := d.linked.ReadAtLink(p, off, l)
	d.AccountRead(start, n, err, ops)
	return n, err
}

// WriteAtLink is WriteAt carrying the caller's span link.
func (d *Instrumented) WriteAtLink(p []byte, off int64, l trace.Link) (int, error) {
	return d.WriteAtNLink(p, off, 1, l)
}

// WriteAtNLink is WriteAtN carrying the caller's span link.
func (d *Instrumented) WriteAtNLink(p []byte, off int64, ops int64, l trace.Link) (int, error) {
	if d.linked == nil || l.Trace == 0 {
		return d.WriteAtN(p, off, ops)
	}
	start := time.Now()
	n, err := d.linked.WriteAtLink(p, off, l)
	d.AccountWrite(start, n, err, ops)
	return n, err
}

// ReadVecAtNLink is ReadVecAtN carrying the caller's span link.
func (d *Instrumented) ReadVecAtNLink(bufs [][]byte, off int64, ops int64, l trace.Link) (int, error) {
	if d.linked == nil || l.Trace == 0 {
		return d.ReadVecAtN(bufs, off, ops)
	}
	start := time.Now()
	n, err := d.linked.ReadVecAtLink(bufs, off, l)
	d.AccountRead(start, n, err, ops)
	return n, err
}

// WriteVecAtNLink is WriteVecAtN carrying the caller's span link.
func (d *Instrumented) WriteVecAtNLink(bufs [][]byte, off int64, ops int64, l trace.Link) (int, error) {
	if d.linked == nil || l.Trace == 0 {
		return d.WriteVecAtN(bufs, off, ops)
	}
	start := time.Now()
	n, err := d.linked.WriteVecAtLink(bufs, off, l)
	d.AccountWrite(start, n, err, ops)
	return n, err
}

// Size implements Device.
func (d *Instrumented) Size() int64 { return d.dev.Size() }

// Close implements Device.
func (d *Instrumented) Close() error { return d.dev.Close() }
