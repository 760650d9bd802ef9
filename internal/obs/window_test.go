package obs

import (
	"sync"
	"testing"
	"time"
)

func TestLoadWindowRecordAndSnapshot(t *testing.T) {
	w := NewLoadWindow(3, 60, time.Second)
	for d := 0; d < 3; d++ {
		w.Record(d, false, 10, time.Now())
		w.Record(d, true, 5, time.Now())
	}
	s := w.Snapshot()
	for d := 0; d < 3; d++ {
		if s.Reads[d] != 10 || s.Writes[d] != 5 {
			t.Errorf("disk %d: reads=%d writes=%d, want 10/5", d, s.Reads[d], s.Writes[d])
		}
		if s.Load.PerDisk[d] != 15 {
			t.Errorf("disk %d combined load %d, want 15", d, s.Load.PerDisk[d])
		}
	}
	if s.Load.LF != 1 {
		t.Errorf("balanced window LF = %v, want 1", s.Load.LF)
	}
	if s.ReadsPerSec <= 0 || s.WritesPerSec <= 0 {
		t.Errorf("rates %v/%v, want positive", s.ReadsPerSec, s.WritesPerSec)
	}
	if len(s.HotDisks) != 0 {
		t.Errorf("balanced load flagged hot disks %v", s.HotDisks)
	}
	if s.WindowNanos <= 0 || s.WindowNanos > int64(60*time.Second) {
		t.Errorf("covered window %d ns", s.WindowNanos)
	}
}

func TestLoadWindowHotDiskDetection(t *testing.T) {
	w := NewLoadWindow(4, 60, time.Second)
	for d := 0; d < 4; d++ {
		w.Record(d, false, 10, time.Now())
	}
	w.Record(2, true, 100, time.Now()) // disk 2 now way over 1.5× the mean
	s := w.Snapshot()
	if len(s.HotDisks) != 1 || s.HotDisks[0] != 2 {
		t.Errorf("hot disks %v, want [2]", s.HotDisks)
	}
	if s.HotFactor != DefaultHotFactor {
		t.Errorf("hot factor %v, want default %v", s.HotFactor, DefaultHotFactor)
	}

	w.SetHotFactor(1) // ≤ 1 disables detection
	if s := w.Snapshot(); len(s.HotDisks) != 0 {
		t.Errorf("detection disabled but hot disks %v", s.HotDisks)
	}
	w.SetHotFactor(20) // nothing is 20× the mean
	if s := w.Snapshot(); len(s.HotDisks) != 0 {
		t.Errorf("factor 20 but hot disks %v", s.HotDisks)
	}
}

func TestLoadWindowAgesOut(t *testing.T) {
	// 4 slots × 10ms: counts must disappear once the window rolls past them.
	w := NewLoadWindow(2, 4, 10*time.Millisecond)
	w.Record(0, false, 100, time.Now())
	if s := w.Snapshot(); s.Reads[0] != 100 {
		t.Fatalf("fresh count missing: %v", s.Reads)
	}
	deadline := time.Now().Add(time.Second)
	for {
		if s := w.Snapshot(); s.Reads[0] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("count never aged out of a 40ms window")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLoadWindowReset(t *testing.T) {
	w := NewLoadWindow(2, 8, time.Second)
	w.Record(0, false, 7, time.Now())
	w.Record(1, true, 9, time.Now())
	w.Reset()
	s := w.Snapshot()
	if s.Reads[0] != 0 || s.Writes[1] != 0 || s.Load.Total != 0 {
		t.Errorf("after reset: %+v", s)
	}
}

func TestLoadWindowNilSafe(t *testing.T) {
	var w *LoadWindow
	w.Record(0, false, 1, time.Now()) // must not panic
}

// TestLoadWindowConcurrent exercises rotation racing Record and Snapshot;
// run under -race in CI.
func TestLoadWindowConcurrent(t *testing.T) {
	w := NewLoadWindow(4, 3, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				w.Record(g, i%3 == 0, 1, time.Now())
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		s := w.Snapshot()
		for d, v := range s.Load.PerDisk {
			if v < 0 {
				t.Fatalf("disk %d negative load %d", d, v)
			}
		}
	}
}
