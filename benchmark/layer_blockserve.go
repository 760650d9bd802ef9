package main

import (
	"errors"
	"time"

	"dcode/internal/blockdev"
	"dcode/internal/blockserve"
)

// backendShim records a backend span around every call the block server
// makes into what it serves. The difference between a client's op span and
// the backend span under it is what the wire costs: framing, the socket, the
// server's goroutines and admission.
type backendShim struct {
	blockserve.Backend
	rec *recorder
}

func (b *backendShim) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := b.Backend.ReadAt(p, off)
	b.rec.add(layerBackend, kindRead, -1, start, n)
	return n, err
}

func (b *backendShim) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := b.Backend.WriteAt(p, off)
	b.rec.add(layerBackend, kindWrite, -1, start, n)
	return n, err
}

// Flush forwards FLUSH when the backend takes it, as the server would.
func (b *backendShim) Flush() error {
	start := time.Now()
	var err error
	if f, ok := b.Backend.(blockserve.Flusher); ok {
		err = f.Flush()
	}
	b.rec.add(layerBackend, kindFlush, -1, start, 0)
	return err
}

// wireFigures are the block service's costs over a set of traced wire ops.
type wireFigures struct {
	ops        int     // reads and writes that crossed the wire
	opP50      float64 // client op span, µs
	tax        float64 // op span minus the backend span under it, over the median band, µs
	flushP50   float64 // FLUSH round trip, µs
	flushCount int
}

func wireOf(accts []opAccount) wireFigures {
	var f wireFigures
	served := func(a opAccount) bool { return a.kind != kindFlush && a.backend > 0 }
	f.opP50, f.ops = p50of(accts, served, func(a opAccount) int64 { return a.op })
	f.tax = meanUs(medianBand(accts, served), func(a opAccount) int64 { return a.op - a.backend })
	f.flushP50, f.flushCount = p50of(accts, func(a opAccount) bool { return a.kind == kindFlush },
		func(a opAccount) int64 { return a.op })
	return f
}

// probeNullRTT measures the floor of the wire: one-element reads of a
// MemDevice served over loopback, one connection, a FLUSH after every
// flushEvery-th. The backend does a memcpy, so the round trip is nearly all
// wire tax.
func probeNullRTT(g geometry, d time.Duration) (f wireFigures, err error) {
	rec := newRecorder(1 << 16)
	mem := blockdev.NewMem(int64(g.n) * int64(g.elem) * g.stripes)
	addr, stop, err := serveLoopback(&backendShim{Backend: mem, rec: rec})
	if err != nil {
		return f, err
	}
	defer func() { err = errors.Join(err, stop()) }()
	r, err := blockdev.DialRemote(addr)
	if err != nil {
		return f, err
	}
	defer func() { err = errors.Join(err, r.Close()) }()

	buf := make([]byte, g.elem)
	slots := mem.Size() / int64(g.elem)
	rec.on.Store(true)
	var callErr error
	i := int64(0)
	for start := time.Now(); time.Since(start) < d && callErr == nil; i++ {
		res := stepResult{kind: kindRead, bytes: len(buf), start: time.Now()}
		if i%(flushEvery+1) == flushEvery {
			res.kind, res.bytes = kindFlush, 0
			callErr = r.Flush()
		} else {
			_, callErr = r.ReadAt(buf, (i*7919%slots)*int64(g.elem))
		}
		res.dur = time.Since(res.start)
		rec.addOp(res)
	}
	rec.on.Store(false)
	if callErr != nil {
		return f, callErr
	}
	return wireOf(account(rec.spans)), nil
}

// blockserveMetrics reports the wire's cost for this traced run. The ops are
// the workload's own when it crosses the wire; an in-process workload has no
// wire op — blockserve.workload_wire_ops in the detail reads 0 — and the
// figures are then those of the null-backend probe: the floor any wire op
// would pay.
func blockserveMetrics(res *result, accts []opAccount, null wireFigures) {
	own := wireOf(accts)
	res.detail("blockserve.workload_wire_ops", float64(own.ops), "count")
	f := own
	if own.ops == 0 {
		f = null
	}
	res.Metrics["blockserve.wire_tax_us_per_op"] = metricValue{Value: f.tax, Unit: "us", Samples: f.ops}
	share := 0.0
	if f.opP50 > 0 {
		share = f.tax / f.opP50
	}
	res.set("blockserve.wire_tax_share", share, "ratio")
	res.Metrics["blockserve.flush_p50_us"] = metricValue{Value: f.flushP50, Unit: "us", Samples: f.flushCount}
	res.Metrics["blockserve.null_rtt_us"] = metricValue{Value: null.opP50, Unit: "us", Samples: null.ops}
}
