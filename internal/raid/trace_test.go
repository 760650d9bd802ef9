package raid

import (
	"sync"
	"testing"
	"time"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/trace"
)

// collectByOp indexes drained spans by kind.
func collectByOp(spans []trace.Span) map[trace.Op][]trace.Span {
	m := make(map[trace.Op][]trace.Span)
	for _, sp := range spans {
		m[sp.Op] = append(m[sp.Op], sp)
	}
	return m
}

// TestTraceSpanHierarchy drives every operation kind and checks the span tree:
// each op-level span is a root, stripe spans parent to op spans, and device
// spans parent to stripe-level spans (or to the RMW commit's stripe span).
func TestTraceSpanHierarchy(t *testing.T) {
	tr := trace.New(1<<16, 64) // big enough to retain everything
	tr.SetSlowThreshold(time.Nanosecond)
	a, _ := newArrayConc(t, "dcode", 5, 4, WithTracer(tr), WithConcurrency(1))
	tr.Enable()

	data := pattern(int(a.Size()), 3)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, a.Size())
	if _, err := a.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// One-element RMW write to exercise the element-grained commit spans.
	if _, err := a.WriteAt(data[:elemSize], 0); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadAt(buf, 0); err != nil { // degraded read
		t.Fatal(err)
	}
	if err := a.Rebuild(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Scrub(); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	if st := tr.Stats(); st.Dropped != 0 {
		t.Fatalf("ring dropped %d spans; grow the test ring", st.Dropped)
	}
	byID := make(map[uint64]trace.Span, len(spans))
	for _, sp := range spans {
		if sp.ID == 0 {
			t.Fatal("span with zero ID")
		}
		byID[sp.ID] = sp
	}
	ops := collectByOp(spans)

	for _, want := range []trace.Op{
		trace.OpRead, trace.OpWrite, trace.OpRebuild, trace.OpScrub,
		trace.OpReadStripe, trace.OpWriteStripe, trace.OpDegradedRead,
		trace.OpRebuildStripe, trace.OpScrubStripe,
		trace.OpDevRead, trace.OpDevWrite,
	} {
		if len(ops[want]) == 0 {
			t.Errorf("no %s spans recorded", want)
		}
	}

	// Root spans have no parent; everything else parents to a retained span.
	roots := map[trace.Op]bool{
		trace.OpRead: true, trace.OpWrite: true, trace.OpRebuild: true, trace.OpScrub: true,
	}
	parentOf := map[trace.Op][]trace.Op{
		trace.OpReadStripe:    {trace.OpRead},
		trace.OpWriteStripe:   {trace.OpWrite},
		trace.OpDegradedRead:  {trace.OpReadStripe},
		trace.OpRebuildStripe: {trace.OpRebuild},
		trace.OpScrubStripe:   {trace.OpScrub},
		trace.OpDevRead: {trace.OpReadStripe, trace.OpWriteStripe, trace.OpRebuildStripe,
			trace.OpScrubStripe, trace.OpDegradedRead},
		trace.OpDevWrite: {trace.OpWriteStripe, trace.OpRebuildStripe, trace.OpScrubStripe},
	}
	for _, sp := range spans {
		if roots[sp.Op] {
			if sp.Parent != 0 {
				t.Errorf("%s span %d has parent %d, want root", sp.Op, sp.ID, sp.Parent)
			}
			continue
		}
		p, found := byID[sp.Parent]
		if !found {
			t.Errorf("%s span %d: parent %d not retained", sp.Op, sp.ID, sp.Parent)
			continue
		}
		ok := false
		for _, want := range parentOf[sp.Op] {
			if p.Op == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s span parented to %s, want one of %v", sp.Op, p.Op, parentOf[sp.Op])
		}
	}

	// Stripe-level spans carry a stripe index; device spans carry a disk.
	for _, sp := range ops[trace.OpReadStripe] {
		if sp.Stripe < 0 {
			t.Errorf("read_stripe span without stripe index: %+v", sp)
		}
	}
	for _, sp := range ops[trace.OpDevRead] {
		if sp.Disk < 0 {
			t.Errorf("dev_read span without disk: %+v", sp)
		}
	}
	if len(tr.SlowSpans()) == 0 {
		t.Error("1ns slow threshold captured nothing")
	}
}

// TestSnapshotCarriesObservability: the window rides every snapshot, the
// trace section only when a real tracer is attached.
func TestSnapshotCarriesObservability(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 2)
	data := pattern(int(a.Size()), 9)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	s := a.Snapshot()
	if s.Window == nil {
		t.Fatal("snapshot without window section")
	}
	if s.Window.Load.Total == 0 {
		t.Error("window recorded no load for a full-volume write")
	}
	if s.Trace != nil {
		t.Error("snapshot carries a trace section without a tracer attached")
	}
	if got, want := s.Window.Load.Total, s.Load.Total; got != want {
		t.Errorf("window load total %d != cumulative load total %d (nothing aged out here)", got, want)
	}

	tr := trace.New(64, 8)
	at, _ := newArrayConc(t, "dcode", 5, 2, WithTracer(tr))
	tr.Enable()
	if _, err := at.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	st := at.Snapshot()
	if st.Trace == nil || st.Trace.Recorded == 0 {
		t.Fatalf("traced snapshot missing trace section: %+v", st.Trace)
	}
}

// TestResetMetricsClearsWindow: ResetMetrics must clear the rolling window
// along with the other tallies (TestLoadMatrixPinned resets after pre-fill).
func TestResetMetricsClearsWindow(t *testing.T) {
	a, _ := newArray(t, "dcode", 5, 2)
	data := pattern(int(a.Size()), 4)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	a.ResetMetrics()
	if s := a.LoadWindow().Snapshot(); s.Load.Total != 0 {
		t.Errorf("window total %d after ResetMetrics, want 0", s.Load.Total)
	}
}

// TestSteadyStateAllocsWithDisabledTracer mirrors TestSteadyStateAllocs with
// a real (but disabled) tracer attached: the disabled instrumentation points
// must not push the pooled data path off its 0 allocs/op steady state.
func TestSteadyStateAllocsWithDisabledTracer(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	tr := trace.New(trace.DefaultCapacity, trace.DefaultSlowCapacity)
	a, _ := newArrayConc(t, "dcode", 7, 4, WithConcurrency(1), WithTracer(tr))
	data := pattern(int(a.Size()), 2)
	buf := make([]byte, a.Size())
	for i := 0; i < 3; i++ {
		if _, err := a.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := a.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}); avg >= 1 {
		t.Errorf("ReadAt with disabled tracer allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := a.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}); avg >= 1 {
		t.Errorf("WriteAt with disabled tracer allocates %.1f/op, want 0", avg)
	}
}

// BenchmarkTracingOverhead measures the data path with no tracer, a disabled
// tracer, and an enabled tracer — the disabled column is the satellite
// acceptance check (no measurable overhead when off).
func BenchmarkTracingOverhead(b *testing.B) {
	for _, mode := range []string{"none", "disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			opts := []Option{WithConcurrency(1)}
			var tr *trace.Tracer
			if mode != "none" {
				tr = trace.New(trace.DefaultCapacity, trace.DefaultSlowCapacity)
				opts = append(opts, WithTracer(tr))
			}
			a, _ := newArrayConc(b, "dcode", 7, 4, opts...)
			if mode == "enabled" {
				tr.Enable()
			}
			data := pattern(int(a.Size()), 2)
			if _, err := a.WriteAt(data, 0); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, a.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.ReadAt(buf, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(a.Size())
		})
	}
}

// linkRecorder is a memory column with the LinkedDevice pair: it records the
// direction and trace link of every vectored operation served through it.
type linkRecorder struct {
	*blockdev.MemDevice
	mu    sync.Mutex
	ops   []bool // write?
	links []trace.Link
}

func (d *linkRecorder) note(write bool, l trace.Link) {
	d.mu.Lock()
	d.ops = append(d.ops, write)
	d.links = append(d.links, l)
	d.mu.Unlock()
}

func (d *linkRecorder) ReadVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error) {
	d.note(false, l)
	return d.ReadVecAt(bufs, off)
}

func (d *linkRecorder) WriteVecAtLink(bufs [][]byte, off int64, l trace.Link) (int, error) {
	d.note(true, l)
	return d.WriteVecAt(bufs, off)
}

// TestDeviceCallsCarryTraceLinks pins that every device call a link-capable
// column serves on a traced, fanned-out array — full-stripe and
// read-modify-write commits, aligned and unaligned reads — arrives through
// its link pair with the link of the device span that issued it.
func TestDeviceCallsCarryTraceLinks(t *testing.T) {
	const stripes = 2
	code := codes.MustNew("dcode", 5)
	devs := make([]blockdev.Device, code.Cols())
	recs := make([]*linkRecorder, code.Cols())
	for i := range devs {
		recs[i] = &linkRecorder{MemDevice: blockdev.NewMem(stripes * int64(code.Rows()) * elemSize)}
		devs[i] = recs[i]
	}
	tr := trace.New(1<<14, 64)
	a, err := New(code, devs, elemSize, stripes, WithConcurrency(4), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	tr.Enable()

	data := pattern(int(a.Size()), 5)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteAt(data[:100], 10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, a.Size())
	if _, err := a.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadAt(buf[:300], 7); err != nil {
		t.Fatal(err)
	}

	devSpans := make(map[uint64]trace.Span)
	for _, sp := range tr.Spans() {
		if sp.Op == trace.OpDevRead || sp.Op == trace.OpDevWrite {
			devSpans[sp.ID] = sp
		}
	}
	for col, r := range recs {
		st := r.Stats()
		if n := int64(len(r.links)); n == 0 || n != st.Reads+st.Writes {
			t.Fatalf("col %d served %d reads and %d writes, %d of them through the link pair",
				col, st.Reads, st.Writes, n)
		}
		for i, l := range r.links {
			sp, ok := devSpans[l.Span]
			if l.Trace == 0 || !ok || sp.Trace != l.Trace || sp.Disk != int32(col) || (sp.Op == trace.OpDevWrite) != r.ops[i] {
				t.Fatalf("col %d op %d (write=%v) carried link %+v, not the link of its own device span", col, i, r.ops[i], l)
			}
		}
	}
}
