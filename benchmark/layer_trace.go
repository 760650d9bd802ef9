package main

import (
	"errors"
	"time"

	"dcode"
	"dcode/internal/raid"
	"dcode/internal/trace"
)

// probeTraceTax reports what switching the program's own tracer on costs:
// the read_healthy stream against two arrays that differ only in
// raid.WithTracer, in alternating chunks so that drift hits both alike. The
// figure is the throughput lost, in percent. It bounds an opt-in route; by
// default no tracer is attached and no end-to-end metric pays it.
func probeTraceTax(res *result, e *env, g geometry, seed int64, d time.Duration) (err error) {
	w, _ := workloadByName("read_healthy")
	const chunk = 500 // ops per alternation
	streams, err := buildStreams(g, w, seed, chunk, 1)
	if err != nil {
		return err
	}
	tr := trace.New(trace.DefaultCapacity, trace.DefaultSlowCapacity)
	tr.Enable()
	var sessions [2]*session
	for i, opts := range [][]dcode.ArrayOption{nil, {raid.WithTracer(tr)}} {
		s, _, err := setup(e, g, w, seed, streams, hooks{arrayOpts: opts})
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, s.close()) }()
		sessions[i] = s
	}
	var perOp [2][]float64
	var t tally
	for start := time.Now(); time.Since(start) < d || len(perOp[1]) < 3; {
		for i, s := range sessions {
			st := s.steppers[0]
			var busy time.Duration
			for range chunk {
				r := st.step(false)
				t.note(r.ok)
				busy += r.dur
			}
			perOp[i] = append(perOp[i], float64(busy)/chunk)
		}
	}
	res.tally(t, firstFailure(append(sessions[0].steppers, sessions[1].steppers...)))
	off, on := median(perOp[0]), median(perOp[1])
	res.set("trace.tax_pct", (on-off)/on*100, "%")
	return nil
}
