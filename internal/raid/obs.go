package raid

import (
	"dcode/internal/erasure"
	"dcode/internal/obs"
	"dcode/internal/trace"
)

// arrayMetrics is the array's observability state: lock-free counters for
// every logical event the old Stats struct tracked, latency histograms for
// the hot paths. The per-disk I/O load that mirrors the paper's Figure 4/5
// metric on the live engine is kept per column (see column).
type arrayMetrics struct {
	reads            obs.Counter
	writes           obs.Counter
	degradedReads    obs.Counter
	fullStripeWrites obs.Counter // stripe writes that patched no parity
	rmwWrites        obs.Counter // elements written by stripe writes that patched one
	stripesRebuilt   obs.Counter
	scrubErrorsFixed obs.Counter
	sectorsRepaired  obs.Counter

	readLatency         obs.Histogram // whole ReadAt calls
	writeLatency        obs.Histogram // whole WriteAt calls
	degradedReadLatency obs.Histogram // reconstruction portions of reads
	rebuildLatency      obs.Histogram // per stripe rebuilt
	scrubLatency        obs.Histogram // per stripe scrubbed

	// parityLatency is the "parity compute" term of the per-phase latency
	// decomposition: time spent in erasure-code Encode/Reconstruct calls and
	// the raid layer's own group-XOR reconstruction loops. Always on — one
	// clock pair around a multi-kilobyte XOR pass is noise.
	parityLatency obs.Histogram

	// decodeXOROps/Bytes tally the group-XOR reconstruction work the raid
	// layer performs itself (degraded-read plan steps, read-repair, planned
	// rebuild); whole-stripe reconstructions run inside the erasure engine
	// and are counted by its own XORCounters instead.
	decodeXOROps   obs.Counter
	decodeXORBytes obs.Counter

	// degradedPlanHits counts degraded/repair plans served from the
	// per-array plan memo instead of recomputed.
	degradedPlanHits obs.Counter
}

// countDecodeXOR records n element XORs executed by a raid-layer
// reconstruction path.
func (a *Array) countDecodeXOR(n int) {
	a.m.decodeXOROps.Add(int64(n))
	a.m.decodeXORBytes.Add(int64(n) * int64(a.elemSize))
}

// Snapshot is the machine-readable view of everything the array measures.
// It is the payload of `raidctl stats` and the /stats HTTP endpoint.
type Snapshot struct {
	Code  string `json:"code"`
	Disks int    `json:"disks"`

	Counters CounterSnapshot `json:"counters"`
	Latency  LatencySnapshot `json:"latency"`

	// Load is the per-column device-operation tally (reads+writes per disk)
	// with the paper's load-balancing factor LF = Lmax/Lmin (Eq. 8, -1 when
	// a disk is idle) and the coefficient of variation.
	Load obs.LoadSnapshot `json:"load"`

	// Devices carries the full per-disk detail: op/byte/error counts and
	// device-level latency histograms.
	Devices []obs.IOSnapshot `json:"devices"`

	// XOR is the encode/decode XOR volume the erasure engine actually
	// executed; AnalyticEncodeXORPerData is ComputeMetrics' prediction
	// (paper §III-D), so `encode_ops / data elements encoded` can be checked
	// against it.
	XOR                      XORSnapshot `json:"xor"`
	AnalyticEncodeXORPerData float64     `json:"analytic_encode_xor_per_data"`

	// Window is the rolling per-disk load view (recent reads/writes per disk,
	// live LF over the window, op rates, hot disks). Unlike Load, which
	// accumulates since the last reset, Window only covers the configured
	// trailing interval.
	Window *obs.WindowSnapshot `json:"window,omitempty"`

	// Trace carries the tracer's ring counters and retained slow spans; nil
	// (omitted) when the array runs with the Nop tracer.
	Trace *TraceSnapshot `json:"trace,omitempty"`

	// Server carries the network block service's per-client op/byte metrics
	// when the array is served over TCP (see SetServerStats); nil (omitted)
	// for a purely in-process array.
	Server *obs.ServerSnapshot `json:"server,omitempty"`

	// Phases is the per-phase latency decomposition: where a request's time
	// went, split into admission-queue wait, parity compute, device I/O, and
	// network round trips. Nil (omitted) when nothing was measured.
	Phases *PhaseSnapshot `json:"phases,omitempty"`
}

// PhaseSnapshot decomposes operation latency by phase. The terms are
// measured independently (each phase's own histogram), not by subdividing
// individual requests, so they answer "which phase dominates" rather than
// summing to any one request's latency.
type PhaseSnapshot struct {
	// Queue is the block service's admission-queue wait (0 for requests
	// admitted immediately); zero-valued for in-process arrays.
	Queue obs.HistogramSnapshot `json:"queue"`
	// Parity is erasure-code compute: Encode/Reconstruct calls plus the raid
	// layer's group-XOR reconstruction loops.
	Parity obs.HistogramSnapshot `json:"parity"`
	// Device is physical device time, merged across every column's read and
	// write latency histograms (remote columns count here too — their device
	// time includes the network, which Network isolates).
	Device obs.HistogramSnapshot `json:"device"`
	// Network is the client-observed request/response round-trip time of
	// remote columns; zero-valued for all-local arrays.
	Network obs.HistogramSnapshot `json:"network"`
}

// Zero reports whether nothing was observed in any phase.
func (p *PhaseSnapshot) Zero() bool {
	return p.Queue.Count == 0 && p.Parity.Count == 0 && p.Device.Count == 0 && p.Network.Count == 0
}

// Merge accumulates another decomposition into p.
func (p *PhaseSnapshot) Merge(o PhaseSnapshot) {
	p.Queue.Merge(o.Queue)
	p.Parity.Merge(o.Parity)
	p.Device.Merge(o.Device)
	p.Network.Merge(o.Network)
}

// XORSnapshot aliases the erasure engine's counter snapshot so Snapshot
// consumers only deal with raid types.
type XORSnapshot = erasure.XORSnapshot

// CounterSnapshot is the array's counter record, as Stats returns it and
// Snapshot carries it. Under the write plan a stripe write that patches any
// parity counts its written elements in RMWWrites; one that patches none —
// re-encoded, full-stripe or degraded — counts once in FullStripeWrites.
// Reads and Writes count logical operations, DegradedReads those that needed
// reconstruction, SectorsRepaired the latent sector errors read-repair
// healed. The plan-memo counter is omitted when zero, as on an array that
// never read degraded.
type CounterSnapshot struct {
	Reads            int64 `json:"reads"`
	Writes           int64 `json:"writes"`
	DegradedReads    int64 `json:"degraded_reads"`
	FullStripeWrites int64 `json:"full_stripe_writes"`
	RMWWrites        int64 `json:"rmw_writes"`
	StripesRebuilt   int64 `json:"stripes_rebuilt"`
	ScrubErrorsFixed int64 `json:"scrub_errors_fixed"`
	SectorsRepaired  int64 `json:"sectors_repaired"`
	DegradedPlanHits int64 `json:"degraded_plan_hits,omitempty"`
}

// LatencySnapshot groups the array-level histograms.
type LatencySnapshot struct {
	Read         obs.HistogramSnapshot `json:"read"`
	Write        obs.HistogramSnapshot `json:"write"`
	DegradedRead obs.HistogramSnapshot `json:"degraded_read"`
	Rebuild      obs.HistogramSnapshot `json:"rebuild_stripe"`
	Scrub        obs.HistogramSnapshot `json:"scrub_stripe"`
}

// Snapshot captures the array's full observability state. Like every obs
// snapshot it is approximately consistent while operations are in flight and
// exact once they quiesce.
func (a *Array) Snapshot() Snapshot {
	s := Snapshot{
		Code:     a.code.Name(),
		Disks:    a.code.Cols(),
		Counters: a.Stats(),
		Latency: LatencySnapshot{
			Read:         a.m.readLatency.Snapshot(),
			Write:        a.m.writeLatency.Snapshot(),
			DegradedRead: a.m.degradedReadLatency.Snapshot(),
			Rebuild:      a.m.rebuildLatency.Snapshot(),
			Scrub:        a.m.scrubLatency.Snapshot(),
		},
		Devices: make([]obs.IOSnapshot, len(a.columns)),
		Load:    obs.LoadSnapshot{PerDisk: make([]int64, len(a.columns))},
	}
	for i, c := range a.columns {
		s.Devices[i] = c.m.Snapshot()
		s.Load.PerDisk[i] = s.Devices[i].Ops()
	}
	s.Load.Recompute()
	s.XOR = a.code.XORStats()
	s.XOR.DecodeOps += a.m.decodeXOROps.Load()
	s.XOR.DecodeBytes += a.m.decodeXORBytes.Load()
	s.AnalyticEncodeXORPerData = a.code.ComputeMetrics().EncodeXORPerData
	if a.window != nil {
		ws := a.window.Snapshot()
		s.Window = &ws
	}
	if a.tr != nil && a.tr != trace.Nop {
		s.Trace = &TraceSnapshot{Stats: a.tr.Stats(), SlowSpans: a.tr.SlowSpans()}
	}
	if a.serverStats != nil {
		ss := a.serverStats()
		s.Server = &ss
	}

	// Phase decomposition, derived at snapshot time so the hot path pays
	// nothing beyond the parity histogram it already feeds: Device merges the
	// per-column device histograms captured above, Network the RTT view of
	// any remote column, Queue the block service's admission wait.
	var ph PhaseSnapshot
	ph.Parity = a.m.parityLatency.Snapshot()
	for i := range s.Devices {
		ph.Device.Merge(s.Devices[i].ReadLatency)
		ph.Device.Merge(s.Devices[i].WriteLatency)
	}
	for _, c := range a.columns {
		if rd, ok := c.dev.(interface{ RTTSnapshot() obs.HistogramSnapshot }); ok {
			ph.Network.Merge(rd.RTTSnapshot())
		}
	}
	if s.Server != nil && s.Server.QueueWait != nil {
		ph.Queue = *s.Server.QueueWait
	}
	if !ph.Zero() {
		s.Phases = &ph
	}
	return s
}

// SetServerStats registers the network block service's snapshot provider, so
// Array.Snapshot — and with it /stats, /metrics and raidctl — carries the
// per-client byte/op metrics of the process serving this array. Set it
// during process startup, before the array serves traffic; the field is read
// without synchronization afterwards.
func (a *Array) SetServerStats(fn func() obs.ServerSnapshot) { a.serverStats = fn }

// WithEvents wires a flight recorder into the array: disk failures, rebuild
// and scrub lifecycle, and degraded-read entry are recorded with the trace ID of the operation that hit them. A nil recorder (the
// default) disables recording at the cost of one nil check per event site.
func WithEvents(rec *obs.Recorder) Option {
	return func(a *Array) {
		a.ev = rec
	}
}

// Events returns the array's flight recorder; nil when none was configured.
func (a *Array) Events() *obs.Recorder { return a.ev }

// Merge accumulates another snapshot into s; raidctl uses it to aggregate
// statistics across process lifetimes. Code identity fields are taken from o
// when s is zero-valued so merging into an empty snapshot works.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Code == "" {
		s.Code = o.Code
		s.Disks = o.Disks
	}
	if s.AnalyticEncodeXORPerData == 0 {
		s.AnalyticEncodeXORPerData = o.AnalyticEncodeXORPerData
	}

	s.Counters.Reads += o.Counters.Reads
	s.Counters.Writes += o.Counters.Writes
	s.Counters.DegradedReads += o.Counters.DegradedReads
	s.Counters.FullStripeWrites += o.Counters.FullStripeWrites
	s.Counters.RMWWrites += o.Counters.RMWWrites
	s.Counters.StripesRebuilt += o.Counters.StripesRebuilt
	s.Counters.ScrubErrorsFixed += o.Counters.ScrubErrorsFixed
	s.Counters.SectorsRepaired += o.Counters.SectorsRepaired
	s.Counters.DegradedPlanHits += o.Counters.DegradedPlanHits

	s.Latency.Read.Merge(o.Latency.Read)
	s.Latency.Write.Merge(o.Latency.Write)
	s.Latency.DegradedRead.Merge(o.Latency.DegradedRead)
	s.Latency.Rebuild.Merge(o.Latency.Rebuild)
	s.Latency.Scrub.Merge(o.Latency.Scrub)

	s.Load.Merge(o.Load)
	for len(s.Devices) < len(o.Devices) {
		s.Devices = append(s.Devices, obs.IOSnapshot{})
	}
	for i := range o.Devices {
		s.Devices[i].Merge(o.Devices[i])
	}

	s.XOR.Merge(o.XOR)

	// The window is a point-in-time rolling view and the slow-span log is a
	// recent-history capture: neither sums meaningfully, so the merge adopts
	// the newer snapshot's values while the trace counters accumulate.
	if o.Window != nil {
		w := *o.Window
		s.Window = &w
	}
	if o.Server != nil {
		if s.Server == nil {
			s.Server = &obs.ServerSnapshot{}
		}
		s.Server.Merge(*o.Server)
	}
	if o.Phases != nil {
		if s.Phases == nil {
			s.Phases = &PhaseSnapshot{}
		}
		s.Phases.Merge(*o.Phases)
	}
	if o.Trace != nil {
		if s.Trace == nil {
			s.Trace = &TraceSnapshot{}
		}
		s.Trace.Recorded += o.Trace.Recorded
		s.Trace.Dropped += o.Trace.Dropped
		s.Trace.SlowCaptured += o.Trace.SlowCaptured
		s.Trace.Enabled = o.Trace.Enabled
		s.Trace.Capacity = o.Trace.Capacity
		s.Trace.SlowCapacity = o.Trace.SlowCapacity
		s.Trace.SlowThresholdNs = o.Trace.SlowThresholdNs
		s.Trace.SlowSpans = o.Trace.SlowSpans
	}
}

// ResetMetrics zeroes every counter, histogram and device tally, including
// the erasure code's XOR counters. Call it after pre-filling an array so the
// measured window covers only the workload.
// It is exact only while the array is quiescent; note the XOR counters live
// on the code instance, so arrays sharing one *erasure.Code share that reset.
func (a *Array) ResetMetrics() {
	a.m.reads.Reset()
	a.m.writes.Reset()
	a.m.degradedReads.Reset()
	a.m.fullStripeWrites.Reset()
	a.m.rmwWrites.Reset()
	a.m.stripesRebuilt.Reset()
	a.m.scrubErrorsFixed.Reset()
	a.m.sectorsRepaired.Reset()
	a.m.readLatency.Reset()
	a.m.writeLatency.Reset()
	a.m.degradedReadLatency.Reset()
	a.m.rebuildLatency.Reset()
	a.m.scrubLatency.Reset()
	a.m.parityLatency.Reset()
	a.m.decodeXOROps.Reset()
	a.m.decodeXORBytes.Reset()
	a.m.degradedPlanHits.Reset()
	for _, c := range a.columns {
		c.m.Reset()
	}
	a.window.Reset()
	a.code.ResetXORStats()
}
