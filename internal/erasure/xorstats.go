package erasure

import "sync/atomic"

// XORCounters tallies, lock-free, the element-XOR work a Code instance has
// actually executed, split by direction: encode (Encode, EncodeGroup,
// UpdateData) and decode (Reconstruct, including the Gaussian
// fallback). One "op" is one whole-element XOR (or element copy into an
// accumulator); bytes is ops × element size.
//
// Together with ComputeMetrics this closes the paper's §III-D loop at
// runtime: the analytic figure says what the encoding *should* cost
// (EncodeXORPerData per data element), the counters say what it *did* cost,
// and internal/raid's Snapshot reports both so a drifting implementation is
// caught by measurement rather than by review.
type XORCounters struct {
	encodeOps   atomic.Int64
	encodeBytes atomic.Int64
	decodeOps   atomic.Int64
	decodeBytes atomic.Int64
}

func (x *XORCounters) addEncode(ops, bytes int64) {
	x.encodeOps.Add(ops)
	x.encodeBytes.Add(bytes)
}

func (x *XORCounters) addDecode(ops, bytes int64) {
	x.decodeOps.Add(ops)
	x.decodeBytes.Add(bytes)
}

// XORSnapshot is the JSON-friendly view of the counters.
type XORSnapshot struct {
	EncodeOps   int64 `json:"encode_ops"`
	EncodeBytes int64 `json:"encode_bytes"`
	DecodeOps   int64 `json:"decode_ops"`
	DecodeBytes int64 `json:"decode_bytes"`
}

// Merge accumulates another snapshot into s.
func (s *XORSnapshot) Merge(o XORSnapshot) {
	s.EncodeOps += o.EncodeOps
	s.EncodeBytes += o.EncodeBytes
	s.DecodeOps += o.DecodeOps
	s.DecodeBytes += o.DecodeBytes
}

// XORStats returns the XOR work executed by this code instance so far.
func (c *Code) XORStats() XORSnapshot {
	return XORSnapshot{
		EncodeOps:   c.xor.encodeOps.Load(),
		EncodeBytes: c.xor.encodeBytes.Load(),
		DecodeOps:   c.xor.decodeOps.Load(),
		DecodeBytes: c.xor.decodeBytes.Load(),
	}
}

// ResetXORStats zeroes the counters. Like the obs package's resets it is
// only exact while no encode/decode is in flight.
func (c *Code) ResetXORStats() {
	c.xor.encodeOps.Store(0)
	c.xor.encodeBytes.Store(0)
	c.xor.decodeOps.Store(0)
	c.xor.decodeBytes.Store(0)
}
