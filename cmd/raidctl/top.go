package main

// The interactive side of raidctl: `trace` (drive a synthetic workload with
// per-op tracing enabled, dump Chrome trace-event JSON), `top` (live per-disk
// load view), and the text renderers `stats -watch` shares with them. The
// renderers are pure snapshot→string functions so tests can pin their output
// without a terminal.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dcode/internal/obs"
	"dcode/internal/raid"
	"dcode/internal/trace"
	"dcode/internal/workload"
)

// clearScreen is the ANSI home+clear sequence the redrawing views emit.
const clearScreen = "\033[H\033[2J"

func profileByName(name string) (workload.Profile, error) {
	switch strings.ToLower(name) {
	case "readonly", "read-only":
		return workload.ReadOnly, nil
	case "readintensive", "read-intensive":
		return workload.ReadIntensive, nil
	case "mixed", "readwrite", "read-write":
		return workload.Mixed, nil
	}
	return workload.Profile{}, fmt.Errorf("unknown profile %q (want readonly, readintensive or mixed)", name)
}

// replayWorkload generates a deterministic <S,L,T> workload and replays it
// against the array. A non-nil stop flag is checked between executions so a
// display loop can end the run at an operation boundary.
func replayWorkload(a *raid.Array, opsN int, profileName string, seed int64, stop *atomic.Bool) error {
	prof, err := profileByName(profileName)
	if err != nil {
		return err
	}
	totalElems := int(a.Size() / int64(a.ElemSize()))
	opsList, err := workload.Generate(workload.Config{
		Ops: opsN, MaxTimes: 4, DataElems: totalElems, Seed: seed,
	}, prof)
	if err != nil {
		return err
	}
	elem := int64(a.ElemSize())
	buf := make([]byte, 21*elem) // MaxLen default is 20 elements
	for _, op := range opsList {
		off := int64(op.S) * elem
		n := int64(op.L) * elem
		if rem := a.Size() - off; n > rem {
			n = rem
		}
		if n <= 0 {
			continue
		}
		for t := 0; t < op.T; t++ {
			if stop != nil && stop.Load() {
				return nil
			}
			if op.Kind == workload.Read {
				_, err = a.ReadAt(buf[:n], off)
			} else {
				_, err = a.WriteAt(buf[:n], off)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// doTrace drives a synthetic workload with tracing enabled and writes the
// captured spans as a Chrome trace-event file.
func doTrace(dir, out string, opsN int, profileName string, slow time.Duration, seed int64) {
	tr := trace.New(trace.DefaultCapacity, trace.DefaultSlowCapacity)
	if slow > 0 {
		tr.SetSlowThreshold(slow)
	}
	a, _ := mount(dir, raid.WithTracer(tr))
	tr.Enable()
	if err := replayWorkload(a, opsN, profileName, seed, nil); err != nil {
		fatal(err)
	}
	tr.Disable()
	spans := tr.Spans()
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	if err := trace.WriteChrome(f, spans); err != nil {
		fatal(errors.Join(err, f.Close()))
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	persistFailed(dir, a)
	persistStats(dir, a)
	st := tr.Stats()
	fmt.Printf("wrote %d spans to %s (%d recorded, %d evicted from the ring, %d slow)\n",
		len(spans), out, st.Recorded, st.Dropped, st.SlowCaptured)
}

// top renders the live load view every interval. With drive it generates its
// own workload in-process and reads the array's rolling window directly;
// without it it re-reads stats.json, showing whatever the last raidctl
// process persisted. count bounds the number of frames (0 = until the driven
// workload completes, or forever in watch mode).
func top(dir string, interval time.Duration, count int, drive bool, opsN int, profileName string, seed int64, w io.Writer) {
	if interval <= 0 {
		interval = time.Second
	}
	if !drive {
		for i := 0; count <= 0 || i < count; i++ {
			s := loadStats(dir)
			fmt.Fprint(w, clearScreen, renderTop(&s))
			time.Sleep(interval)
		}
		return
	}
	tr := trace.New(trace.DefaultCapacity, trace.DefaultSlowCapacity)
	tr.SetSlowThreshold(time.Millisecond)
	a, _ := mount(dir, raid.WithTracer(tr))
	tr.Enable()
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() { done <- replayWorkload(a, opsN, profileName, seed, &stop) }()
	frames := 0
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case err := <-done:
			if err != nil {
				fatal(err)
			}
			s := a.Snapshot()
			fmt.Fprint(w, clearScreen, renderTop(&s), "workload complete\n")
			persistFailed(dir, a)
			persistStats(dir, a)
			return
		case <-ticker.C:
			s := a.Snapshot()
			fmt.Fprint(w, clearScreen, renderTop(&s))
			frames++
			if count > 0 && frames >= count {
				stop.Store(true)
				if err := <-done; err != nil {
					fatal(err)
				}
				persistFailed(dir, a)
				persistStats(dir, a)
				return
			}
		}
	}
}

// renderTop formats the live load view: one bar per disk scaled to the
// busiest one, the window's live LF and op rates, hot disks, and the slow-op
// log when the snapshot carries trace data.
func renderTop(s *raid.Snapshot) string {
	var b strings.Builder
	var reads, writes []int64
	if s.Window != nil && len(s.Window.Reads) > 0 {
		reads, writes = s.Window.Reads, s.Window.Writes
	} else {
		// No window (old stats.json): fall back to the cumulative tally.
		reads = s.Load.PerDisk
		writes = make([]int64, len(reads))
	}
	fmt.Fprintf(&b, "%s array — %d disks", s.Code, s.Disks)
	if s.Window != nil {
		fmt.Fprintf(&b, "   window %.0fs   LF(window) %s", float64(s.Window.WindowNanos)/1e9, fmtLF(s.Window.Load.LF))
	}
	fmt.Fprintf(&b, "   LF(total) %s   CV %.3f\n\n", fmtLF(s.Load.LF), s.Load.CV)

	var maxLoad int64 = 1
	for i := range reads {
		if l := reads[i] + writes[i]; l > maxLoad {
			maxLoad = l
		}
	}
	hot := map[int]bool{}
	if s.Window != nil {
		for _, d := range s.Window.HotDisks {
			hot[d] = true
		}
	}
	const barWidth = 40
	for i := range reads {
		load := reads[i] + writes[i]
		fill := int(load * barWidth / maxLoad)
		mark := " "
		if hot[i] {
			mark = "!"
		}
		fmt.Fprintf(&b, "disk %2d %s |%-*s| r %-8d w %-8d\n",
			i, mark, barWidth, strings.Repeat("█", fill), reads[i], writes[i])
	}
	if s.Window != nil {
		fmt.Fprintf(&b, "\nrates: %.1f reads/s  %.1f writes/s", s.Window.ReadsPerSec, s.Window.WritesPerSec)
		if len(s.Window.HotDisks) > 0 {
			fmt.Fprintf(&b, "   hot disks (> %.1f× mean): %v", s.Window.HotFactor, s.Window.HotDisks)
		}
		b.WriteString("\n")
	}
	b.WriteString(renderPhases(s))
	if s.Trace != nil && len(s.Trace.SlowSpans) > 0 {
		spans := append([]trace.Span(nil), s.Trace.SlowSpans...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].Dur > spans[j].Dur })
		if len(spans) > 8 {
			spans = spans[:8]
		}
		fmt.Fprintf(&b, "\nslowest ops (threshold %s, %d captured):\n",
			time.Duration(s.Trace.SlowThresholdNs), s.Trace.SlowCaptured)
		for _, sp := range spans {
			fmt.Fprintf(&b, "  %10s  %-14s", time.Duration(sp.Dur), sp.Op)
			if sp.Stripe >= 0 {
				fmt.Fprintf(&b, " stripe %-5d", sp.Stripe)
			}
			if sp.Disk >= 0 {
				fmt.Fprintf(&b, " disk %-2d", sp.Disk)
			}
			if sp.Bytes > 0 {
				fmt.Fprintf(&b, " %d B", sp.Bytes)
			}
			if sp.Err {
				b.WriteString(" ERR")
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// renderStats is the compact human summary `stats -watch` redraws: op
// counters, the latency quantiles, and the load view.
func renderStats(s *raid.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s array — %d disks\n\n", s.Code, s.Disks)
	c := s.Counters
	fmt.Fprintf(&b, "ops: %d reads (%d degraded)  %d writes (%d stripes re-encoded, %d elements patched)\n",
		c.Reads, c.DegradedReads, c.Writes, c.FullStripeWrites, c.RMWWrites)
	fmt.Fprintf(&b, "     %d stripes rebuilt  %d scrub fixes  %d sectors repaired\n\n",
		c.StripesRebuilt, c.ScrubErrorsFixed, c.SectorsRepaired)
	fmt.Fprintf(&b, "latency           %10s %10s %10s %10s %10s\n", "p50", "p95", "p99", "p999", "max")
	for _, row := range []struct {
		name string
		h    obs.HistogramSnapshot
	}{
		{"read", s.Latency.Read},
		{"write", s.Latency.Write},
		{"degraded read", s.Latency.DegradedRead},
		{"rebuild/stripe", s.Latency.Rebuild},
		{"scrub/stripe", s.Latency.Scrub},
	} {
		if row.h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-15s %10s %10s %10s %10s %10s\n", row.name,
			time.Duration(row.h.P50Nanos), time.Duration(row.h.P95Nanos),
			time.Duration(row.h.P99Nanos), time.Duration(row.h.P999Nanos),
			time.Duration(row.h.MaxNanos))
	}
	b.WriteString(renderPhases(s))
	fmt.Fprintf(&b, "\nload: LF %s  CV %.3f  per-disk %v\n", fmtLF(s.Load.LF), s.Load.CV, s.Load.PerDisk)
	if s.Window != nil {
		fmt.Fprintf(&b, "window: LF %s  %.1f reads/s  %.1f writes/s\n",
			fmtLF(s.Window.Load.LF), s.Window.ReadsPerSec, s.Window.WritesPerSec)
	}
	return b.String()
}

// renderPhases formats the per-phase latency decomposition: where request
// time goes — admission queue, parity compute, device I/O, network — each
// phase measured by its own histogram. Empty when the snapshot carries none.
func renderPhases(s *raid.Snapshot) string {
	p := s.Phases
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nphases            %10s %10s %10s %12s\n", "p50", "p99", "max", "total")
	for _, row := range []struct {
		name string
		h    obs.HistogramSnapshot
	}{
		{"queue wait", p.Queue},
		{"parity compute", p.Parity},
		{"device i/o", p.Device},
		{"network rtt", p.Network},
	} {
		if row.h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-15s %10s %10s %10s %12s\n", row.name,
			time.Duration(row.h.P50Nanos), time.Duration(row.h.P99Nanos),
			time.Duration(row.h.MaxNanos), time.Duration(row.h.SumNanos))
	}
	return b.String()
}

// fmtLF renders the load-balancing factor, whose idle-disk sentinel is -1.
func fmtLF(lf float64) string {
	if lf < 0 {
		return "∞ (idle disk)"
	}
	return fmt.Sprintf("%.3f", lf)
}
