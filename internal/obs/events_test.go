package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRecorderRecordAndDrain(t *testing.T) {
	r := NewRecorder(8)
	r.Record(EvRemoteRetry, 2, -1, 0xBEEF, 3)
	r.Record(EvSemSaturated, -1, 40, 0, 4096)
	if got := r.Recorded(); got != 2 {
		t.Fatalf("Recorded() = %d, want 2", got)
	}
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != EvRemoteRetry || evs[0].Disk != 2 || evs[0].Trace != 0xBEEF || evs[0].Aux != 3 {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Kind != EvSemSaturated || evs[1].Stripe != 40 || evs[1].Aux != 4096 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if evs[0].Seq >= evs[1].Seq || evs[0].TimeNs > evs[1].TimeNs {
		t.Errorf("events out of order: %+v then %+v", evs[0], evs[1])
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *Recorder
	r.Record(EvDiskFailed, 1, -1, 0, 0)
	if r.Recorded() != 0 || r.Events() != nil {
		t.Fatal("nil recorder retained state")
	}
	r.Dump(&bytes.Buffer{}) // must not panic
}

// TestRecorderDisabledPathAllocatesNothing pins the acceptance criterion: a
// producer holding a nil Recorder pays no allocation recording into it, and
// neither does a live Record call — the data path's 0 allocs/op must hold
// with the flight recorder wired in.
func TestRecorderDisabledPathAllocatesNothing(t *testing.T) {
	var nilRec *Recorder
	if n := testing.AllocsPerRun(200, func() {
		nilRec.Record(EvDegradedRead, 1, 2, 3, 4)
	}); n != 0 {
		t.Errorf("nil Recorder.Record allocates %.1f/op, want 0", n)
	}
	live := NewRecorder(64)
	if n := testing.AllocsPerRun(200, func() {
		live.Record(EvDegradedRead, 1, 2, 3, 4)
	}); n != 0 {
		t.Errorf("live Recorder.Record allocates %.1f/op, want 0", n)
	}
}

// TestRecorderCriticalRetention floods the main ring with noise after a
// disk-failed event: the critical mirror must keep the failure visible long
// after the main ring wrapped past it.
func TestRecorderCriticalRetention(t *testing.T) {
	r := NewRecorder(16)
	r.Record(EvDiskFailed, 5, -1, 0xF00D, 0)
	for i := 0; i < 1000; i++ {
		r.Record(EvSemSaturated, -1, int64(i), 0, 1)
	}
	var failed []Event
	for _, ev := range r.Events() {
		if ev.Kind == EvDiskFailed {
			failed = append(failed, ev)
		}
	}
	if len(failed) != 1 {
		t.Fatalf("disk_failed retained %d times, want exactly once", len(failed))
	}
	if failed[0].Disk != 5 || failed[0].Trace != 0xF00D {
		t.Errorf("retained event = %+v", failed[0])
	}
}

// TestRecorderCriticalDedup: a critical event young enough to still sit in
// the main ring is drained from both rings but must be reported once, and
// the merged drain must stay Seq-ordered.
func TestRecorderCriticalDedup(t *testing.T) {
	r := NewRecorder(64)
	r.Record(EvSemSaturated, -1, 1, 0, 1)
	r.Record(EvDiskFailed, 2, -1, 0, 0)
	r.Record(EvRebuildStart, 2, -1, 0, 0)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 (no duplicates): %+v", len(evs), evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not Seq-ordered: %+v", evs)
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(EvSemSaturated, int32(w), int64(i), 0, 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Events() // drains race writers; must never see torn slots
		}
	}()
	wg.Wait()
	<-done
	if got := r.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded() = %d, want %d", got, writers*perWriter)
	}
	evs := r.Events()
	if len(evs) == 0 || len(evs) > 128+64 {
		t.Fatalf("retained %d events, want within ring bounds", len(evs))
	}
	for _, ev := range evs {
		if ev.Kind != EvSemSaturated || ev.Disk < 0 || ev.Disk >= writers {
			t.Fatalf("torn event: %+v", ev)
		}
	}
}

func TestEventKindJSONRoundTrip(t *testing.T) {
	b, err := json.Marshal(Event{Kind: EvDegradedRead, Disk: 1, Stripe: 2, Trace: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"degraded_read"`) {
		t.Fatalf("kind not marshaled by name: %s", b)
	}
	var ev Event
	if err := json.Unmarshal(b, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EvDegradedRead {
		t.Fatalf("kind = %v after round trip", ev.Kind)
	}
}

func TestRecorderDump(t *testing.T) {
	r := NewRecorder(8)
	r.Record(EvDiskFailed, 3, -1, 0xABC, 0)
	r.Record(EvSemSaturated, -1, 7, 0, 512)
	var buf bytes.Buffer
	r.Dump(&buf)
	out := buf.String()
	if !strings.Contains(out, "disk_failed disk=3") {
		t.Errorf("dump missing disk_failed line:\n%s", out)
	}
	if !strings.Contains(out, "trace=0000000000000abc") {
		t.Errorf("dump missing trace ID:\n%s", out)
	}
	if !strings.Contains(out, "sem_saturated") || !strings.Contains(out, "aux=512") {
		t.Errorf("dump missing sem_saturated line:\n%s", out)
	}
}
