package obs

// AsyncMetrics is the counter set of an asynchronous device-submission
// queue (internal/blockdev's AsyncQueue): how many operations were submitted
// and completed, how they were grouped into submission batches, how often
// the worker queue was full, and the submit→completion latency — which
// includes time parked in the queue, so comparing it against the per-device
// service histograms makes queueing delay visible.
//
// Like every type in this package it is lock-free and safe for concurrent
// use; the zero value is ready.
type AsyncMetrics struct {
	// Submitted and Completed count individual vectored operations; their
	// difference is the in-flight depth at snapshot time.
	Submitted Counter
	Completed Counter
	// Batches counts submission flushes (Kick calls and queue-full
	// auto-flushes); Submitted/Batches is the mean batch size.
	Batches Counter
	// BatchSizes is a log₂ histogram of operations per batch: BatchSizes[i]
	// counts batches of [2^(i-1), 2^i) ops (index 0 is unused — a flush of
	// zero ops is not a batch).
	BatchSizes [asyncBatchBuckets]Counter
	// SQFullStalls counts submissions that found the queue full and had to
	// wait for (or force) a flush — the backpressure signal that the
	// configured depth, not the devices, is the bottleneck.
	SQFullStalls Counter
	// OpLatency spans submit to completion callback, queueing included.
	OpLatency Histogram
}

// asyncBatchBuckets covers batch sizes up to 2^15; the raid scheduler
// submits at most a stripe's runs per batch, far below that.
const asyncBatchBuckets = 16

// RecordBatch tallies one submission flush of n operations.
func (m *AsyncMetrics) RecordBatch(n int) {
	if n <= 0 {
		return
	}
	m.Batches.Inc()
	b := bucketOf(int64(n))
	if b >= asyncBatchBuckets {
		b = asyncBatchBuckets - 1
	}
	m.BatchSizes[b].Inc()
}

// Snapshot captures the queue counters; Depth is filled by the queue that
// owns the metrics.
func (m *AsyncMetrics) Snapshot() AsyncSnapshot {
	s := AsyncSnapshot{
		Submitted:    m.Submitted.Load(),
		Completed:    m.Completed.Load(),
		Batches:      m.Batches.Load(),
		SQFullStalls: m.SQFullStalls.Load(),
		BatchSizes:   make([]int64, asyncBatchBuckets),
		OpLatency:    m.OpLatency.Snapshot(),
	}
	s.Inflight = s.Submitted - s.Completed
	if s.Inflight < 0 {
		// Counters are read without a barrier; clamp the transient skew.
		s.Inflight = 0
	}
	for i := range m.BatchSizes {
		s.BatchSizes[i] = m.BatchSizes[i].Load()
	}
	return s
}

// Reset zeroes the counters; exact only while the queue is idle.
func (m *AsyncMetrics) Reset() {
	m.Submitted.Reset()
	m.Completed.Reset()
	m.Batches.Reset()
	m.SQFullStalls.Reset()
	for i := range m.BatchSizes {
		m.BatchSizes[i].Reset()
	}
	m.OpLatency.Reset()
}

// AsyncSnapshot is the JSON view of AsyncMetrics plus the queue's
// configured depth.
type AsyncSnapshot struct {
	Depth        int               `json:"depth"`
	Submitted    int64             `json:"submitted"`
	Completed    int64             `json:"completed"`
	Inflight     int64             `json:"inflight"`
	Batches      int64             `json:"batches"`
	BatchSizes   []int64           `json:"batch_sizes"`
	SQFullStalls int64             `json:"sq_full_stalls"`
	OpLatency    HistogramSnapshot `json:"op_latency"`
}

// Merge accumulates another snapshot into s. Depth is taken from o when s
// has none, matching the other snapshot merges.
func (s *AsyncSnapshot) Merge(o AsyncSnapshot) {
	if s.Depth == 0 {
		s.Depth = o.Depth
	}
	s.Submitted += o.Submitted
	s.Completed += o.Completed
	s.Inflight += o.Inflight
	s.Batches += o.Batches
	s.SQFullStalls += o.SQFullStalls
	for len(s.BatchSizes) < len(o.BatchSizes) {
		s.BatchSizes = append(s.BatchSizes, 0)
	}
	for i := range o.BatchSizes {
		s.BatchSizes[i] += o.BatchSizes[i]
	}
	s.OpLatency.Merge(o.OpLatency)
}

// MeanBatch returns the mean operations per submission batch, 0 when no
// batch has been flushed.
func (s *AsyncSnapshot) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Submitted) / float64(s.Batches)
}
