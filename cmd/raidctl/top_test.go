package main

import (
	"strings"
	"testing"
	"time"

	"dcode/internal/obs"
	"dcode/internal/raid"
	"dcode/internal/trace"
)

func sampleSnapshot() *raid.Snapshot {
	return &raid.Snapshot{
		Code:  "D-Code(p=7)",
		Disks: 3,
		Counters: raid.CounterSnapshot{
			Reads: 10, Writes: 4, RMWWrites: 3, FullStripeWrites: 1,
		},
		Load: obs.LoadSnapshot{PerDisk: []int64{30, 10, 20}, Total: 60, LF: 3, CV: 0.27},
		Window: &obs.WindowSnapshot{
			WindowNanos:  int64(10 * time.Second),
			SlotNanos:    int64(time.Second),
			Reads:        []int64{20, 5, 10},
			Writes:       []int64{10, 5, 10},
			Load:         obs.LoadSnapshot{PerDisk: []int64{30, 10, 20}, Total: 60, LF: 3, CV: 0.27},
			ReadsPerSec:  3.5,
			WritesPerSec: 2.5,
			HotDisks:     []int{0},
			HotFactor:    1.5,
		},
		Trace: &raid.TraceSnapshot{
			Stats: trace.Stats{Enabled: true, Recorded: 12, SlowCaptured: 2,
				SlowThresholdNs: int64(time.Millisecond)},
			SlowSpans: []trace.Span{
				{ID: 1, Op: trace.OpRead, Disk: -1, Stripe: -1, Bytes: 4096, Dur: int64(2 * time.Millisecond)},
				{ID: 2, Op: trace.OpDevWrite, Disk: 1, Stripe: 3, Bytes: 64, Dur: int64(5 * time.Millisecond), Err: true},
			},
		},
	}
}

func TestRenderTop(t *testing.T) {
	out := renderTop(sampleSnapshot())
	for _, frag := range []string{
		"D-Code(p=7) array — 3 disks",
		"window 10s",
		"LF(window) 3.000",
		"LF(total) 3.000",
		"disk  0 !", // hot disk marked
		"disk  1  ",
		"r 20",
		"w 10",
		"rates: 3.5 reads/s  2.5 writes/s",
		"hot disks (> 1.5× mean): [0]",
		"slowest ops (threshold 1ms, 2 captured)",
		"dev_write",
		"stripe 3",
		"disk 1",
		"ERR",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("renderTop output missing %q:\n%s", frag, out)
		}
	}
	// Slow spans sort by duration, longest first.
	if i, j := strings.Index(out, "dev_write"), strings.Index(out, "read "); i > j {
		t.Errorf("5ms dev_write should list before 2ms read:\n%s", out)
	}
	// The busiest disk's bar must fill the full width, the idle one less.
	lines := strings.Split(out, "\n")
	var bar0, bar1 int
	for _, l := range lines {
		if strings.HasPrefix(l, "disk  0") {
			bar0 = strings.Count(l, "█")
		}
		if strings.HasPrefix(l, "disk  1") {
			bar1 = strings.Count(l, "█")
		}
	}
	if bar0 != 40 || bar1 >= bar0 {
		t.Errorf("bars: disk0=%d (want 40) disk1=%d (want < disk0)", bar0, bar1)
	}
}

func TestRenderTopWithoutWindow(t *testing.T) {
	s := sampleSnapshot()
	s.Window = nil
	s.Trace = nil
	out := renderTop(s) // old stats.json without the window section
	if !strings.Contains(out, "disk  0") || !strings.Contains(out, "r 30") {
		t.Errorf("cumulative fallback missing per-disk lines:\n%s", out)
	}
	if strings.Contains(out, "rates:") || strings.Contains(out, "slowest ops") {
		t.Errorf("window/trace sections rendered without data:\n%s", out)
	}
}

func TestRenderStats(t *testing.T) {
	s := sampleSnapshot()
	s.Latency.Read = obs.HistogramSnapshot{
		Count: 10, P50Nanos: int64(time.Millisecond),
		P95Nanos: int64(2 * time.Millisecond), P99Nanos: int64(3 * time.Millisecond),
		P999Nanos: int64(3500 * time.Microsecond),
		MaxNanos:  int64(4 * time.Millisecond),
	}
	out := renderStats(s)
	for _, frag := range []string{
		"ops: 10 reads (0 degraded)  4 writes (1 stripes re-encoded, 3 elements patched)",
		"p50", "p95", "p99", "p999",
		"read", "1ms", "2ms", "3ms", "3.5ms", "4ms",
		"load: LF 3.000",
		"window: LF 3.000  3.5 reads/s  2.5 writes/s",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("renderStats output missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "write ") && strings.Contains(out, "  write ") {
		t.Errorf("empty write histogram rendered a latency row:\n%s", out)
	}
}

func TestFmtLF(t *testing.T) {
	if got := fmtLF(1.234); got != "1.234" {
		t.Errorf("fmtLF(1.234) = %q", got)
	}
	if got := fmtLF(-1); got != "∞ (idle disk)" {
		t.Errorf("fmtLF(-1) = %q", got)
	}
}

func TestProfileByName(t *testing.T) {
	for name, want := range map[string]string{
		"readonly":      "Read-Only",
		"readintensive": "Read-Intensive",
		"mixed":         "Read-Write Evenly Mixed",
	} {
		p, err := profileByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != want {
			t.Errorf("%s → %q, want %q", name, p.Name, want)
		}
	}
	if _, err := profileByName("nonsense"); err == nil {
		t.Error("unknown profile accepted")
	}
}
