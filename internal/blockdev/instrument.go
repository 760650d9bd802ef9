package blockdev

import (
	"dcode/internal/obs"
	"dcode/internal/trace"
)

// LinkedDevice is implemented by devices that can carry a trace link with
// each vectored operation — today only Remote, which stamps the link onto the
// wire so the serving node's spans join the caller's trace. Local devices
// have nothing to propagate to.
type LinkedDevice interface {
	ReadVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error)
	WriteVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error)
}

// Instrumented wraps a Device and records every operation into an
// obs.IOMetrics: op and byte counts, error counts, and per-op latency
// histograms. Errors are passed through unwrapped, so errors.Is checks on
// ErrFailed / ErrBadSector keep working through the wrapper.
//
// Its I/O surface is one vectored pair — the raid layer's every device call
// goes through it — that carries what the raid layer needs: the
// ops-equivalent count of a coalesced run, the caller's span link, and the
// obs.Mono timestamp chain — the caller hands in the call's start and gets
// its end back, so back-to-back calls share one clock read between them. The
// wrapper is not itself a Device: nothing reaches a column around it.
type Instrumented struct {
	dev    Device
	linked LinkedDevice // dev's link-threading view, nil if unsupported
	m      obs.IOMetrics
	hook   OpHook
}

// OpHook observes every completed device operation: write selects the write
// path, ops is the element-access count the call stands for (coalesced calls
// carry the ops they replaced), bytes is what actually moved, and end is the
// completion time (an obs.Mono reading) the latency was measured at — handed
// on so observers need no clock read of their own. The raid layer uses it to
// feed the windowed per-disk load tracker without blockdev knowing which
// column it is.
type OpHook func(write bool, ops, bytes int64, end int64)

// Instrument wraps dev. The wrapper adds a few atomic ops and one monotonic
// clock read per call, read only after the device returns: the call's start
// comes from the caller. BenchmarkInstrumentedReadVec prices the wrapper
// against an in-memory device, where the clock read is most of it.
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

// ReadVecAtNLink performs one physical scatter read that stands in for ops
// element-sized accesses the caller coalesced into it. The read counter
// advances by ops on success so per-disk load tallies stay identical to the
// uncoalesced path (the paper's I/O-load accounting counts element accesses,
// not syscalls); the byte counter advances by the bytes actually moved, which
// is the same either way. Latency is observed once — it is one device access.
// A failed coalesced read is tallied as a single failed access, matching the
// uncoalesced path, which stopped at its first failing element.
//
// When the wrapped device is a LinkedDevice (a Remote) and l is live, the
// caller's span link travels with the operation; otherwise this is the
// device's plain ReadVecAt, so the untraced path pays nothing for it.
//
// start is the obs.Mono reading the call's latency runs from; the one clock
// read is taken after the device returns and handed back as end, which a
// caller issuing runs back to back passes on as the next call's start.
func (d *Instrumented) ReadVecAtNLink(bufs [][]byte, off int64, ops int64, l trace.Link, start int64) (n int, end int64, err error) {
	if d.linked != nil && l.Trace != 0 {
		n, err = d.linked.ReadVecAtLink(bufs, off, l)
	} else {
		n, err = d.dev.ReadVecAt(bufs, off)
	}
	return n, d.accountRead(start, n, err, ops), err
}

// WriteVecAtNLink is ReadVecAtNLink for a gather write.
func (d *Instrumented) WriteVecAtNLink(bufs [][]byte, off int64, ops int64, l trace.Link, start int64) (n int, end int64, err error) {
	if d.linked != nil && l.Trace != 0 {
		n, err = d.linked.WriteVecAtLink(bufs, off, l)
	} else {
		n, err = d.dev.WriteVecAt(bufs, off)
	}
	return n, d.accountWrite(start, n, err, ops), err
}

// accountRead applies ReadVecAtNLink's accounting to one completed read;
// start is when the operation was handed to the device, so the observed
// latency includes any time it queued there. It returns the completion time,
// the call's one clock read.
func (d *Instrumented) accountRead(start int64, n int, err error, ops int64) int64 {
	end := obs.Mono()
	d.m.ReadLatency.ObserveNanos(end - start)
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
	return end
}

// accountWrite is accountRead for the write path.
func (d *Instrumented) accountWrite(start int64, n int, err error, ops int64) int64 {
	end := obs.Mono()
	d.m.WriteLatency.ObserveNanos(end - start)
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
	return end
}

// Size returns the wrapped device's size.
func (d *Instrumented) Size() int64 { return d.dev.Size() }

// Close closes the wrapped device.
func (d *Instrumented) Close() error { return d.dev.Close() }
