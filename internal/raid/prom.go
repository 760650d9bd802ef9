package raid

// Prometheus exposition of a Snapshot. WriteProm renders every family the
// snapshot carries into the text format obs.PromWriter speaks, so the same
// payload that backs /stats and `raidctl stats` also backs /metrics — there
// is exactly one source of truth for what the engine measures.

import (
	"strconv"

	"dcode/internal/obs"
)

// WriteProm writes the snapshot as Prometheus text-format families, all
// prefixed dcode_. Counter families carry an op/disk label where the
// snapshot is per-kind or per-disk; latency histograms are exported as
// summary-style quantile gauges (seconds) plus _sum/_count.
func (s *Snapshot) WriteProm(pw *obs.PromWriter) {
	code := obs.Label{Name: "code", Value: s.Code}

	pw.Family("dcode_info", "Array identity: code name and disk count.", "gauge")
	pw.SampleInt("dcode_info", []obs.Label{code, {Name: "disks", Value: strconv.Itoa(s.Disks)}}, 1)

	pw.Family("dcode_ops_total", "Logical array operations by kind; full_stripe_write counts stripe writes that patched no parity, rmw_write the elements of stripe writes that patched one.", "counter")
	for _, kv := range []struct {
		op string
		n  int64
	}{
		{"read", s.Counters.Reads},
		{"write", s.Counters.Writes},
		{"degraded_read", s.Counters.DegradedReads},
		{"full_stripe_write", s.Counters.FullStripeWrites},
		{"rmw_write", s.Counters.RMWWrites},
		{"stripe_rebuild", s.Counters.StripesRebuilt},
		{"scrub_fix", s.Counters.ScrubErrorsFixed},
		{"sector_repair", s.Counters.SectorsRepaired},
	} {
		pw.SampleInt("dcode_ops_total", []obs.Label{{Name: "op", Value: kv.op}}, kv.n)
	}

	pw.WriteHistogramSummary("dcode_read_latency_seconds", "ReadAt call latency.", nil, s.Latency.Read)
	pw.WriteHistogramSummary("dcode_write_latency_seconds", "WriteAt call latency.", nil, s.Latency.Write)
	pw.WriteHistogramSummary("dcode_degraded_read_latency_seconds", "Reconstruction portion of degraded reads.", nil, s.Latency.DegradedRead)
	pw.WriteHistogramSummary("dcode_rebuild_stripe_latency_seconds", "Per-stripe rebuild latency.", nil, s.Latency.Rebuild)
	pw.WriteHistogramSummary("dcode_scrub_stripe_latency_seconds", "Per-stripe scrub latency.", nil, s.Latency.Scrub)

	pw.Family("dcode_disk_ops_total", "Element-granular device operations per disk.", "counter")
	pw.Family("dcode_disk_bytes_total", "Bytes moved per disk.", "counter")
	pw.Family("dcode_disk_errors_total", "Device errors per disk.", "counter")
	for i, d := range s.Devices {
		disk := obs.Label{Name: "disk", Value: strconv.Itoa(i)}
		pw.SampleInt("dcode_disk_ops_total", []obs.Label{disk, {Name: "op", Value: "read"}}, d.Reads)
		pw.SampleInt("dcode_disk_ops_total", []obs.Label{disk, {Name: "op", Value: "write"}}, d.Writes)
		pw.SampleInt("dcode_disk_bytes_total", []obs.Label{disk, {Name: "dir", Value: "read"}}, d.BytesRead)
		pw.SampleInt("dcode_disk_bytes_total", []obs.Label{disk, {Name: "dir", Value: "written"}}, d.BytesWritten)
		pw.SampleInt("dcode_disk_errors_total", []obs.Label{disk, {Name: "op", Value: "read"}}, d.ReadErrors)
		pw.SampleInt("dcode_disk_errors_total", []obs.Label{disk, {Name: "op", Value: "write"}}, d.WriteErrors)
	}

	pw.Family("dcode_load_balance_factor", "Cumulative LF = Lmax/Lmin (paper Eq. 8); -1 when a disk is idle.", "gauge")
	pw.Sample("dcode_load_balance_factor", []obs.Label{code}, s.Load.LF)
	pw.Family("dcode_load_cv", "Coefficient of variation of per-disk load.", "gauge")
	pw.Sample("dcode_load_cv", []obs.Label{code}, s.Load.CV)

	if w := s.Window; w != nil {
		pw.Family("dcode_window_seconds", "Width of the rolling load window.", "gauge")
		pw.Sample("dcode_window_seconds", nil, float64(w.WindowNanos)/1e9)
		pw.Family("dcode_window_disk_ops", "Device operations per disk within the rolling window.", "gauge")
		for i := range w.Reads {
			disk := obs.Label{Name: "disk", Value: strconv.Itoa(i)}
			pw.SampleInt("dcode_window_disk_ops", []obs.Label{disk, {Name: "op", Value: "read"}}, w.Reads[i])
			pw.SampleInt("dcode_window_disk_ops", []obs.Label{disk, {Name: "op", Value: "write"}}, w.Writes[i])
		}
		pw.Family("dcode_window_load_balance_factor", "Live LF over the rolling window; -1 when a disk is idle.", "gauge")
		pw.Sample("dcode_window_load_balance_factor", []obs.Label{code}, w.Load.LF)
		pw.Family("dcode_window_ops_per_second", "Device operation rate over the rolling window.", "gauge")
		pw.Sample("dcode_window_ops_per_second", []obs.Label{{Name: "op", Value: "read"}}, w.ReadsPerSec)
		pw.Sample("dcode_window_ops_per_second", []obs.Label{{Name: "op", Value: "write"}}, w.WritesPerSec)
		pw.Family("dcode_window_hot_disk", "1 for disks whose windowed load exceeds the hot threshold.", "gauge")
		for _, d := range w.HotDisks {
			pw.SampleInt("dcode_window_hot_disk", []obs.Label{{Name: "disk", Value: strconv.Itoa(d)}}, 1)
		}
	}

	pw.Family("dcode_xor_ops_total", "Element XOR operations by phase.", "counter")
	pw.SampleInt("dcode_xor_ops_total", []obs.Label{{Name: "phase", Value: "encode"}}, s.XOR.EncodeOps)
	pw.SampleInt("dcode_xor_ops_total", []obs.Label{{Name: "phase", Value: "decode"}}, s.XOR.DecodeOps)
	pw.Family("dcode_xor_bytes_total", "Bytes XORed by phase.", "counter")
	pw.SampleInt("dcode_xor_bytes_total", []obs.Label{{Name: "phase", Value: "encode"}}, s.XOR.EncodeBytes)
	pw.SampleInt("dcode_xor_bytes_total", []obs.Label{{Name: "phase", Value: "decode"}}, s.XOR.DecodeBytes)

	if srv := s.Server; srv != nil {
		pw.Family("dcode_server_connections_total", "Block-service connections by outcome.", "counter")
		pw.SampleInt("dcode_server_connections_total", []obs.Label{{Name: "outcome", Value: "accepted"}}, srv.Accepted)
		pw.SampleInt("dcode_server_connections_total", []obs.Label{{Name: "outcome", Value: "rejected"}}, srv.Rejected)
		pw.Family("dcode_server_clients", "Currently connected block-service clients.", "gauge")
		pw.SampleInt("dcode_server_clients", nil, srv.Active)
		pw.Family("dcode_server_inflight_requests", "Requests being served right now.", "gauge")
		pw.SampleInt("dcode_server_inflight_requests", nil, srv.Inflight)
		pw.Family("dcode_server_requests_total", "Block-service requests by kind, all clients.", "counter")
		for _, kv := range []struct {
			op string
			n  int64
		}{
			{"read", srv.Totals.Reads},
			{"write", srv.Totals.Writes},
			{"flush", srv.Totals.Flushes},
			{"admin", srv.Totals.Admin},
			{"error", srv.Totals.Errors},
		} {
			pw.SampleInt("dcode_server_requests_total", []obs.Label{{Name: "op", Value: kv.op}}, kv.n)
		}
		pw.Family("dcode_server_bytes_total", "Payload bytes through the block service.", "counter")
		pw.SampleInt("dcode_server_bytes_total", []obs.Label{{Name: "dir", Value: "in"}}, srv.Totals.BytesIn)
		pw.SampleInt("dcode_server_bytes_total", []obs.Label{{Name: "dir", Value: "out"}}, srv.Totals.BytesOut)
		pw.Family("dcode_server_client_ops_total", "Requests per connected client.", "counter")
		pw.Family("dcode_server_client_bytes_total", "Payload bytes per connected client.", "counter")
		for i := range srv.Clients {
			c := &srv.Clients[i]
			id := obs.Label{Name: "client", Value: strconv.FormatInt(c.ID, 10)}
			pw.SampleInt("dcode_server_client_ops_total", []obs.Label{id}, c.Ops())
			pw.SampleInt("dcode_server_client_bytes_total", []obs.Label{id, {Name: "dir", Value: "in"}}, c.BytesIn)
			pw.SampleInt("dcode_server_client_bytes_total", []obs.Label{id, {Name: "dir", Value: "out"}}, c.BytesOut)
		}
		pw.Family("dcode_server_draining", "1 while the server is draining for shutdown.", "gauge")
		draining := int64(0)
		if srv.Draining {
			draining = 1
		}
		pw.SampleInt("dcode_server_draining", nil, draining)
	}

	if p := s.Phases; p != nil {
		pw.WriteHistogramSummary("dcode_phase_queue_wait_seconds", "Admission-queue wait of the block service (phase decomposition).", nil, p.Queue)
		pw.WriteHistogramSummary("dcode_phase_parity_seconds", "Erasure-code compute time (phase decomposition).", nil, p.Parity)
		pw.WriteHistogramSummary("dcode_phase_device_seconds", "Physical device time, all columns merged (phase decomposition).", nil, p.Device)
		pw.WriteHistogramSummary("dcode_phase_network_seconds", "Remote-column request round-trip time (phase decomposition).", nil, p.Network)
	}

	if t := s.Trace; t != nil {
		pw.Family("dcode_trace_spans_total", "Spans recorded into the trace ring.", "counter")
		pw.SampleInt("dcode_trace_spans_total", nil, t.Recorded)
		pw.Family("dcode_trace_slow_spans_total", "Spans at or over the slow threshold.", "counter")
		pw.SampleInt("dcode_trace_slow_spans_total", nil, t.SlowCaptured)
		pw.Family("dcode_trace_enabled", "1 while the tracer is recording.", "gauge")
		enabled := int64(0)
		if t.Enabled {
			enabled = 1
		}
		pw.SampleInt("dcode_trace_enabled", nil, enabled)
	}
}
