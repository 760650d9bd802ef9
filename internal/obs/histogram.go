package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of log₂ buckets a Histogram keeps. Bucket i
// counts observations whose nanosecond value v satisfies 2^(i-1) ≤ v < 2^i
// (bucket 0 counts v = 0), so the range spans sub-nanosecond to ~9 minutes —
// far beyond any single storage operation this repository performs.
const HistBuckets = 40

// Histogram is a lock-free latency histogram with logarithmic buckets.
// Observations are single atomic adds; quantiles are estimated from the
// bucket counts at snapshot time (each reported as its bucket's upper bound,
// capped by the exact maximum seen).
//
// The zero value is ready to use. Histogram must not be copied after first
// use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [HistBuckets]atomic.Int64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one latency given in nanoseconds; negative values are
// clamped to zero.
func (h *Histogram) ObserveNanos(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
	h.buckets[bucketOf(ns)].Add(1)
}

// Reset zeroes the histogram. Like Counter.Reset, it is only exact while
// writers are quiescent.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sum.Load(),
		MaxNanos: h.max.Load(),
		Buckets:  make([]int64, HistBuckets),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.refreshQuantiles()
	return s
}

// HistogramSnapshot is the JSON-friendly view of a Histogram. Buckets are
// log₂: Buckets[i] counts observations in [2^(i-1), 2^i) nanoseconds.
// P50/P95/P99/P999 are bucket-upper-bound estimates, so they overestimate by
// at most 2× — adequate for trend tracking and regression gates. P999 is the
// queueing tail: a backlog behind a device's queue depth shows up there long
// before it moves P99.
type HistogramSnapshot struct {
	Count     int64   `json:"count"`
	SumNanos  int64   `json:"sum_ns"`
	MaxNanos  int64   `json:"max_ns"`
	P50Nanos  int64   `json:"p50_ns"`
	P95Nanos  int64   `json:"p95_ns"`
	P99Nanos  int64   `json:"p99_ns"`
	P999Nanos int64   `json:"p999_ns"`
	Buckets   []int64 `json:"buckets"`
}

// Quantile estimates the q-quantile (0 < q ≤ 1) in nanoseconds from the
// bucket counts. It returns 0 for an empty histogram.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			ub := int64(1) << uint(i)
			if i == 0 {
				ub = 0
			}
			if s.MaxNanos > 0 && ub > s.MaxNanos {
				ub = s.MaxNanos
			}
			return ub
		}
	}
	return s.MaxNanos
}

// MeanNanos returns the exact mean latency, 0 when empty.
func (s *HistogramSnapshot) MeanNanos() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNanos) / float64(s.Count)
}

func (s *HistogramSnapshot) refreshQuantiles() {
	s.P50Nanos = s.Quantile(0.50)
	s.P95Nanos = s.Quantile(0.95)
	s.P99Nanos = s.Quantile(0.99)
	s.P999Nanos = s.Quantile(0.999)
}

// Merge accumulates another snapshot into s (bucket-wise sums, max of maxes)
// and recomputes the quantile estimates. raidctl uses it to carry statistics
// across process lifetimes.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	if o.MaxNanos > s.MaxNanos {
		s.MaxNanos = o.MaxNanos
	}
	if len(s.Buckets) < len(o.Buckets) {
		grown := make([]int64, len(o.Buckets))
		copy(grown, s.Buckets)
		s.Buckets = grown
	}
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
	s.refreshQuantiles()
}
