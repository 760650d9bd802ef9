package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted,
// which must be ascending and non-empty: the smallest sample with at least
// q·len(sorted) samples at or below it. It is exact — the samples are the
// measurements themselves, not histogram bins.
func percentile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value of vs (mean of the two middle values for an
// even count); vs is not modified. It is 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spreadPct is (max−min)/median of vs in percent: how far apart the
// repetitions of one run landed.
func spreadPct(vs []float64) float64 {
	m := median(vs)
	if len(vs) == 0 || m == 0 {
		return 0
	}
	return (slices.Max(vs) - slices.Min(vs)) / m * 100
}

// quietShare is the share of a timed pass's windows that the reported
// figures stand on: its quietest tenth.
const quietShare = 0.1

// quiet reduces per-window values to the figure reported: the value at the
// edge of the quietest tenth of the windows — the 90th percentile when higher
// is better, the 10th when lower is. Interference from other tenants of the
// box only ever slows a window, for milliseconds to a minute at a time, so
// the good tail of the windows is the program's own speed and repeats from
// run to run, where the median of the same windows moves with the neighbours
// (README.md, "Why 160 short windows and the quiet tenth").
func quiet(vs []float64, higherIsBetter bool) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	q := quietShare
	if higherIsBetter {
		q = 1 - quietShare
	}
	return s[min(max(int(math.Round(q*float64(len(s)-1))), 0), len(s)-1)]
}

// halvesPct says how far quiet() of the first half of the windows is from
// that of the second, in percent of the whole: when the halves of one run
// disagree by more than a bound, that run cannot show a change of that size.
func halvesPct(vs []float64, higherIsBetter bool) float64 {
	all := quiet(vs, higherIsBetter)
	if len(vs) < 2 || all == 0 {
		return 0
	}
	a, b := quiet(vs[:len(vs)/2], higherIsBetter), quiet(vs[len(vs)/2:], higherIsBetter)
	return math.Abs(a-b) / all * 100
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by ivs, counting overlapping
// stretches once; it sorts ivs in place. Device calls issued by the array's
// fan-out overlap, so a layer's busy time is the union of its spans, not
// their sum.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }
