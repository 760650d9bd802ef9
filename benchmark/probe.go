package main

import "time"

// Layers that cannot be interposed from outside the program — the XOR
// kernels, the erasure code, the recovery planner — are timed as probes: the
// traced run replays the unit of work they do for the array (one stripe, one
// element, one plan) for a fixed time and reports the rate. A probe says what
// the layer costs in isolation, in cache; the end-to-end metric it should
// move is listed beside it in README.md.

// probeBatches is how many batches a probe times; the result is their median,
// so one disturbed batch does not move it.
const probeBatches = 9

// measure calls fn repeatedly for about d and returns the median time of one
// call in nanoseconds. The batch size is found by doubling, which also warms
// caches and pools up.
func measure(d time.Duration, fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for range n {
			fn()
		}
		if time.Since(start) >= d/(2*probeBatches) || n >= 1<<30 {
			break
		}
		n *= 2
	}
	per := make([]float64, 0, probeBatches)
	for range probeBatches {
		start := time.Now()
		for range n {
			fn()
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return median(per)
}

// gbPerSec converts bytes moved in ns nanoseconds to GB/s (10⁹ bytes).
func gbPerSec(bytes int, ns float64) float64 { return float64(bytes) / ns }
