package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, each = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*each {
		t.Fatalf("lost updates: got %d, want %d", got, workers*each)
	}
	c.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("after reset: %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{math.MaxInt64, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.bucket)
		}
	}
}

func TestHistogramQuantilesAndMax(t *testing.T) {
	var h Histogram
	// 99 fast observations and one slow one: p50 stays in the fast bucket,
	// p99 reaches the slow one, max is exact.
	for i := 0; i < 99; i++ {
		h.ObserveNanos(100)
	}
	h.ObserveNanos(1_000_000)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MaxNanos != 1_000_000 {
		t.Fatalf("max = %d", s.MaxNanos)
	}
	if s.P50Nanos < 100 || s.P50Nanos > 256 {
		t.Fatalf("p50 = %d, want within the [64,128) bucket bound (≤256)", s.P50Nanos)
	}
	if s.P99Nanos > 256 {
		t.Fatalf("p99 = %d should still be in the fast bucket (rank 99 of 100)", s.P99Nanos)
	}
	if q := s.Quantile(1.0); q < 524288 || q > 1_000_000 {
		t.Fatalf("p100 = %d, want the slow observation's bucket capped at max", q)
	}
	if mean := s.MeanNanos(); mean < 9000 || mean > 11000 {
		t.Fatalf("mean = %v, want ≈ 10099", mean)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Microsecond)
	h.Observe(-time.Second) // clamped to 0
	s := h.Snapshot()
	if s.Count != 2 || s.MaxNanos != 3000 {
		t.Fatalf("count=%d max=%d", s.Count, s.MaxNanos)
	}
	if s.Buckets[0] != 1 {
		t.Fatalf("negative observation not clamped into bucket 0: %v", s.Buckets[:4])
	}
}

func TestHistogramConcurrentNoLostUpdates(t *testing.T) {
	var h Histogram
	const workers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.ObserveNanos(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*each {
		t.Fatalf("count = %d, want %d", s.Count, workers*each)
	}
	var inBuckets int64
	for _, n := range s.Buckets {
		inBuckets += n
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket sum %d != count %d", inBuckets, s.Count)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.ObserveNanos(100)
		b.ObserveNanos(100000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 20 || sa.MaxNanos != 100000 {
		t.Fatalf("merged count=%d max=%d", sa.Count, sa.MaxNanos)
	}
	if sa.SumNanos != 10*100+10*100000 {
		t.Fatalf("merged sum=%d", sa.SumNanos)
	}
	if sa.P99Nanos < 65536 {
		t.Fatalf("merged p99=%d should reflect the slow half", sa.P99Nanos)
	}
}

func TestLoadSnapshotRecompute(t *testing.T) {
	s := LoadSnapshot{PerDisk: []int64{10, 10, 10, 10}}
	s.Recompute()
	if s.CV != 0 || s.LF != 1 || s.Total != 40 {
		t.Fatalf("balanced tally: %+v", s)
	}

	s.PerDisk[0] += 40 // now 50,10,10,10
	s.Recompute()
	if s.Total != 80 || s.LF != 5 {
		t.Fatalf("Total, LF = %d, %v; want 80, 5", s.Total, s.LF)
	}
	// mean 20, variance (900+100+100+100)/4 = 300, cv = sqrt(300)/20
	want := math.Sqrt(300) / 20
	if math.Abs(s.CV-want) > 1e-12 {
		t.Fatalf("CV = %v, want %v", s.CV, want)
	}
}

func TestLoadSnapshotIdleDisk(t *testing.T) {
	s := LoadSnapshot{PerDisk: []int64{1, 0, 0}}
	s.Recompute()
	if s.LF != -1 {
		t.Fatalf("idle-disk LF should be -1 (the +Inf sentinel), got %v", s.LF)
	}
	if s.CV <= 0 {
		t.Fatalf("CV should be positive with an idle disk, got %v", s.CV)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("idle-disk snapshot must stay JSON-encodable: %v", err)
	}
	var back LoadSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSnapshotMerge(t *testing.T) {
	a := LoadSnapshot{PerDisk: []int64{1, 2, 3}}
	a.Recompute()
	b := LoadSnapshot{PerDisk: []int64{3, 2, 1}}
	b.Recompute()
	a.Merge(b)
	if a.Total != 12 || a.CV != 0 || a.LF != 1 {
		t.Fatalf("merged snapshot: %+v", a)
	}
}

func TestIOMetricsSnapshotAndReset(t *testing.T) {
	var m IOMetrics
	m.Reads.Inc()
	m.Writes.Add(2)
	m.ReadErrors.Inc()
	m.BytesRead.Add(4096)
	m.ReadLatency.ObserveNanos(500)
	s := m.Snapshot()
	if s.Reads != 1 || s.Writes != 2 || s.ReadErrors != 1 || s.BytesRead != 4096 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.Ops() != 3 {
		t.Fatalf("ops = %d", s.Ops())
	}
	m.Reset()
	if s := m.Snapshot(); s.Ops() != 0 || s.ReadLatency.Count != 0 {
		t.Fatalf("after reset: %+v", s)
	}
}

func TestHandlerServesLiveJSON(t *testing.T) {
	var c Counter
	h := Handler(func() any { return map[string]int64{"n": c.Load()} })
	c.Add(7)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var got map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["n"] != 7 {
		t.Fatalf("served %v, want n=7", got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
}

func TestNewMuxEndpoints(t *testing.T) {
	mux := NewMux(func() any { return struct{}{} }, nil)
	for _, path := range []string{"/stats", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d", path, rec.Code)
		}
	}
}
