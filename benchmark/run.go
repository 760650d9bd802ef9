package main

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"time"
)

// metricValue is one reported figure. Samples and SpreadPct say how much
// stands behind it: the sample count of a percentile, and how far the two
// halves of the timed pass (or the set-up repetitions) disagree about it.
type metricValue struct {
	Value     float64  `json:"value"`
	Unit      string   `json:"unit"`
	Samples   int      `json:"samples,omitempty"`
	SpreadPct *float64 `json:"spread_pct,omitempty"`
}

// result is everything one workload reports.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Failure   string `json:"first_failure,omitempty"`
	// Metrics are the figures BENCHMARK.json names: end to end from an
	// untraced run, per layer from a traced one. Detail carries what helps
	// read them (window spread, build time, traced-pass accounting).
	Metrics map[string]metricValue `json:"metrics"`
	Detail  map[string]metricValue `json:"detail,omitempty"`
}

func newResult(w workloadSpec) *result {
	return &result{Workload: w.name, Metrics: map[string]metricValue{}, Detail: map[string]metricValue{}}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *result) detail(name string, v float64, unit string) {
	r.Detail[name] = metricValue{Value: v, Unit: unit}
}

// setWindows reports the quiet-window figure of per-window values.
func (r *result) setWindows(name string, vs []float64, unit string, samples int, higherIsBetter bool) {
	sp := halvesPct(vs, higherIsBetter)
	r.Metrics[name] = metricValue{Value: quiet(vs, higherIsBetter), Unit: unit, Samples: samples, SpreadPct: &sp}
}

func (r *result) tally(t tally, failure string) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	if r.Failure == "" {
		r.Failure = failure
	}
}

func firstFailure(steppers []stepper) string {
	for _, st := range steppers {
		if f := st.failure(); f != "" {
			return f
		}
	}
	return ""
}

// countedOps is how many ops the counted pass of w takes.
func countedOps(g geometry, w workloadSpec) int {
	if w.shape == shapeRebuild {
		return g.n // every column once
	}
	return g.countedOps
}

// passLengths splits a run's measuring time into the discarded warm-up and
// the windows, in the 2 s : 12.5 s proportion ISSUE 12 sized.
func passLengths(seconds float64) (warm, window time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	warm = total * 4 / 29
	return warm, (total - warm) / windows
}

// freshSession sets a workload up reps times, tearing down all but the last,
// and returns that one with every set-up time.
func freshSession(e *env, g geometry, w workloadSpec, seed int64, streams []stream, hk hooks, reps int) (*session, []float64, error) {
	var secs []float64
	for rep := 1; ; rep++ {
		// Start each set-up from a collected heap whose free pages are back
		// with the kernel: the columns of the previous one are garbage by
		// now, and whether this one gets them back already faulted in (a
		// third cheaper) would otherwise hang on the scavenger's pace. Every
		// repetition pays for fresh memory, as a process's first set-up does.
		debug.FreeOSMemory()
		s, sec, err := setup(e, g, w, seed, streams, hk)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, sec)
		if rep >= reps {
			return s, secs, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
	}
}

// runEndToEnd measures one workload with nothing interposed: the counted
// pass, the timed pass and the readback, on one freshly built array.
func runEndToEnd(e *env, g geometry, w workloadSpec, seed int64, seconds float64) (res *result, err error) {
	streams, err := buildStreams(g, w, seed, countedOps(g, w), w.callers())
	if err != nil {
		return nil, err
	}
	s, setups, err := freshSession(e, g, w, seed, streams, hooks{}, g.setupReps)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	res = newResult(w)
	sp := spreadPct(setups)
	res.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", Samples: len(setups), SpreadPct: &sp}

	cnt, t := countedPass(s)
	res.tally(t, firstFailure(s.steppers))
	var failed []int
	if w.degraded {
		failed = []int{failedColumn}
	}
	lf, err := cnt.loadLF(failed)
	if err != nil {
		return nil, err
	}
	res.set("io_cost", cnt.ioCost(), "count")
	res.set("load_lf", lf, "ratio")

	warm, length := passLengths(seconds)
	tm, t := timedPass(s, warm, length)
	res.tally(t, firstFailure(s.steppers))
	perWindow := slices.Min(tm.samples) // the smallest window's sample count
	res.setWindows("throughput_mb_s", tm.mbps, "MiB/s", len(tm.mbps), true)
	res.setWindows("op_p50_us", tm.p50, "us", perWindow, false)
	res.setWindows("op_p99_us", tm.p99, "us", perWindow, false)
	res.detail("bench.window_spread_pct", halvesPct(tm.mbps, true), "%")
	res.detail("bench.window_median_mb_s", median(tm.mbps), "MiB/s")

	t, failure := readback(s)
	res.tally(t, failure)
	res.Correct = res.Failed == 0
	return res, nil
}

// checkGeometry rejects shapes the payload stamps or the stripe runs cannot
// cover.
func checkGeometry(g geometry) error {
	if g.elem%sectorSize != 0 {
		return fmt.Errorf("element size %d is not a multiple of the %d-byte stamp sector", g.elem, sectorSize)
	}
	return nil
}
