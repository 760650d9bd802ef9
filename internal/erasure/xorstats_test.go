package erasure

import "testing"

// The runtime XOR counters must agree with the analytic §III-D figures: one
// Encode executes exactly ComputeMetrics().EncodeXORTotal element XORs, and a
// peelable reconstruction executes exactly what SymbolicDecode predicts.
func TestXORStatsMatchAnalyticEncode(t *testing.T) {
	c := xorPair(t)
	m := c.ComputeMetrics()
	const elemSize = 256

	s := c.NewStripe(elemSize)
	s.Fill(3)
	c.ResetXORStats()
	c.Encode(s)
	got := c.XORStats()
	if got.EncodeOps != int64(m.EncodeXORTotal) {
		t.Fatalf("Encode executed %d XORs, analytic model predicts %d", got.EncodeOps, m.EncodeXORTotal)
	}
	if got.EncodeBytes != got.EncodeOps*elemSize {
		t.Fatalf("encode bytes %d != ops %d × %d", got.EncodeBytes, got.EncodeOps, elemSize)
	}
	if got.DecodeOps != 0 {
		t.Fatalf("Encode must not count decode work, got %d", got.DecodeOps)
	}

}

func TestXORStatsMatchSymbolicDecode(t *testing.T) {
	c := xorPair(t)
	// Column pair (0,2) peels (see xorPair's rank discussion).
	predicted, _, err := c.SymbolicDecode(0, 2)
	if err != nil {
		t.Fatalf("expected a peelable pair: %v", err)
	}
	s := c.NewStripe(64)
	s.Fill(9)
	c.Encode(s)
	want := s.Clone()
	s.ZeroColumn(0)
	s.ZeroColumn(2)
	c.ResetXORStats()
	if err := c.Reconstruct(s, 0, 2); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(want) {
		t.Fatal("reconstruction corrupted the stripe")
	}
	if got := c.XORStats(); got.DecodeOps != int64(predicted) {
		t.Fatalf("Reconstruct executed %d XORs, SymbolicDecode predicts %d", got.DecodeOps, predicted)
	}
}

func TestXORStatsCountGaussianFallback(t *testing.T) {
	c := gaussOnly(t)
	s := c.NewStripe(32)
	s.Fill(5)
	c.Encode(s)
	want := s.Clone()
	s.ZeroColumn(0)
	s.ZeroColumn(1)
	c.ResetXORStats()
	if err := c.Reconstruct(s, 0, 1); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(want) {
		t.Fatal("gaussian reconstruction corrupted the stripe")
	}
	if got := c.XORStats(); got.DecodeOps == 0 {
		t.Fatal("gaussian fallback executed no counted XORs")
	}
}

func TestXORSnapshotMerge(t *testing.T) {
	a := XORSnapshot{EncodeOps: 1, EncodeBytes: 10, DecodeOps: 2, DecodeBytes: 20}
	a.Merge(XORSnapshot{EncodeOps: 3, EncodeBytes: 30, DecodeOps: 4, DecodeBytes: 40})
	want := XORSnapshot{EncodeOps: 4, EncodeBytes: 40, DecodeOps: 6, DecodeBytes: 60}
	if a != want {
		t.Fatalf("merged %+v, want %+v", a, want)
	}
}
