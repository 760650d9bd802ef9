package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dcode"
	"dcode/internal/blockserve"
)

// tracedOps is how many ops the traced pass of w takes.
func tracedOps(g geometry, w workloadSpec) int {
	if w.shape == shapeRebuild {
		return g.tracedRebuilds
	}
	return g.tracedOps
}

// pass executes n ops (FLUSHes aside) from the start of the stream with one
// caller and returns the user bytes moved and the time inside the calls.
// With a recorder every step becomes an op span.
func pass(s *session, n int, rec *recorder, res *result) (bytes int64, busy time.Duration) {
	st := s.steppers[0]
	st.reset()
	if rec != nil {
		rec.on.Store(true)
		defer rec.on.Store(false)
	}
	var t tally
	defer func() { res.tally(t, st.failure()) }()
	for done := 0; done < n; {
		r := st.step(false)
		if rec != nil {
			rec.addOp(r)
		}
		t.note(r.ok)
		bytes += int64(r.bytes)
		busy += r.dur
		if r.kind != kindFlush {
			done++
		}
	}
	return bytes, busy
}

// runTraced attributes one workload's time to layers. It is separate from
// the end-to-end run and never feeds it: a fixed number of ops with one
// caller, first on a system with the span-recording shims in place, then on
// one without them — the difference is what tracing costs — and then the
// probes of the layers no shim can reach. Net workloads are served in
// process here so that the backend shim can sit between server and array.
func runTraced(e *env, g geometry, w workloadSpec, seed int64, seconds float64, traceOut string) (res *result, err error) {
	n := tracedOps(g, w)
	streams, err := buildStreams(g, w, seed, n, 1)
	if err != nil {
		return nil, err
	}
	res = newResult(w)

	// Traced pass.
	rec := newRecorder(1 << 21)
	shims := hooks{
		wrapDev:     func(col int, d dcode.Device) dcode.Device { return &devShim{Device: d, col: col, rec: rec} },
		wrapBackend: func(b blockserve.Backend) blockserve.Backend { return &backendShim{Backend: b, rec: rec} },
	}
	var tracedRate float64
	var counters raidCounters
	err = withSession(e, g, w, seed, streams, shims, func(s *session) {
		before := readRaidCounters(s.arr)
		bytes, busy := pass(s, n, rec, res)
		counters = readRaidCounters(s.arr).minus(before)
		tracedRate = float64(bytes) / busy.Seconds()
		t, failure := readback(s)
		res.tally(t, failure)
	})
	if err != nil {
		return nil, err
	}

	// The same pass with nothing interposed.
	var plainRate float64
	var mallocs, allocBytes uint64
	err = withSession(e, g, w, seed, streams, hooks{}, func(s *session) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		bytes, busy := pass(s, n, nil, res)
		runtime.ReadMemStats(&m1)
		plainRate = float64(bytes) / busy.Seconds()
		mallocs, allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	})
	if err != nil {
		return nil, err
	}

	accts := account(rec.spans)
	opP50, ops := p50of(accts, notFlush, func(a opAccount) int64 { return a.op })
	raidMetrics(res, accts, counters)
	res.set("raid.allocs_per_op", float64(mallocs)/float64(ops), "count")
	res.set("raid.alloc_bytes_per_op", float64(allocBytes)/float64(ops), "B")
	blockdevMetrics(res, rec.spans, accts)
	res.set("bench.traced_overhead_pct", (plainRate-tracedRate)/plainRate*100, "%")
	res.Metrics["bench.traced_op_p50_us"] = metricValue{Value: opP50, Unit: "us", Samples: ops}

	// Probes: a tenth of the run's time each.
	d := time.Duration(seconds * float64(time.Second) / 10)
	null, err := probeNullRTT(g, d)
	if err != nil {
		return nil, err
	}
	blockserveMetrics(res, accts, null)
	probeStripe(res, g.elem, d)
	for _, probe := range []func() error{
		func() error { return probeErasure(res, g, d) },
		func() error { return probeRecovery(res, g, d) },
		func() error { return probeCore(res, e, g, seed) },
		func() error { return probeFileVsMem(res, e, g, d) },
		func() error { return probeTraceTax(res, e, g, seed, d) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	// What share of a traced op the stripe encodes it caused account for: the
	// ceiling on what a faster encode can give this workload.
	encodes := ratio(counters.stripeEncodes, int64(ops))
	res.set("erasure.encode_share", encodes*res.Metrics["erasure.encode_us_per_stripe"].Value/opP50, "ratio")

	// The accounting the layer figures rest on: self + device busy (+ wire
	// tax) should add up to the traced op.
	accounted := res.Metrics["raid.self_us_per_op"].Value + res.Metrics["blockdev.busy_us_per_op"].Value
	if w.net {
		accounted += res.Metrics["blockserve.wire_tax_us_per_op"].Value
	}
	res.detail("bench.accounted_share_of_op_p50", accounted/opP50, "ratio")
	res.detail("bench.spans", float64(len(rec.spans)), "count")

	if traceOut != "" {
		if err := os.MkdirAll(traceOut, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(traceOut, fmt.Sprintf("spans-%s.jsonl", w.name)), rec.spans); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// withSession sets a workload up once, runs fn on it and tears it down.
func withSession(e *env, g geometry, w workloadSpec, seed int64, streams []stream, hk hooks, fn func(*session)) (err error) {
	runtime.GC()
	s, _, err := setup(e, g, w, seed, streams, hk)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	fn(s)
	return nil
}
