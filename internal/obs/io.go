package obs

// IOMetrics instruments one block device: operation and byte counts, error
// counts, and per-operation latency histograms. All fields are lock-free;
// the raid layer keeps one of these per array column.
//
// The zero value is ready to use. IOMetrics must not be copied after first
// use.
type IOMetrics struct {
	Reads        Counter
	Writes       Counter
	ReadErrors   Counter
	WriteErrors  Counter
	BytesRead    Counter
	BytesWritten Counter
	ReadLatency  Histogram
	WriteLatency Histogram
}

// Reset zeroes every metric (quiescent writers only).
func (m *IOMetrics) Reset() {
	m.Reads.Reset()
	m.Writes.Reset()
	m.ReadErrors.Reset()
	m.WriteErrors.Reset()
	m.BytesRead.Reset()
	m.BytesWritten.Reset()
	m.ReadLatency.Reset()
	m.WriteLatency.Reset()
}

// Snapshot captures the device metrics.
func (m *IOMetrics) Snapshot() IOSnapshot {
	return IOSnapshot{
		Reads:        m.Reads.Load(),
		Writes:       m.Writes.Load(),
		ReadErrors:   m.ReadErrors.Load(),
		WriteErrors:  m.WriteErrors.Load(),
		BytesRead:    m.BytesRead.Load(),
		BytesWritten: m.BytesWritten.Load(),
		ReadLatency:  m.ReadLatency.Snapshot(),
		WriteLatency: m.WriteLatency.Snapshot(),
	}
}

// IOSnapshot is the JSON-friendly view of an IOMetrics.
type IOSnapshot struct {
	Reads        int64             `json:"reads"`
	Writes       int64             `json:"writes"`
	ReadErrors   int64             `json:"read_errors"`
	WriteErrors  int64             `json:"write_errors"`
	BytesRead    int64             `json:"bytes_read"`
	BytesWritten int64             `json:"bytes_written"`
	ReadLatency  HistogramSnapshot `json:"read_latency"`
	WriteLatency HistogramSnapshot `json:"write_latency"`
}

// Ops returns the total operation count (reads + writes).
func (s *IOSnapshot) Ops() int64 { return s.Reads + s.Writes }

// Merge accumulates another snapshot into s.
func (s *IOSnapshot) Merge(o IOSnapshot) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadErrors += o.ReadErrors
	s.WriteErrors += o.WriteErrors
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.ReadLatency.Merge(o.ReadLatency)
	s.WriteLatency.Merge(o.WriteLatency)
}
