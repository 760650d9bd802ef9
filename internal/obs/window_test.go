package obs

import (
	"sync"
	"testing"
	"time"
)

func TestLoadWindowRecordAndSnapshot(t *testing.T) {
	w := NewLoadWindow(3, 60, time.Second)
	for d := 0; d < 3; d++ {
		w.Record(d, false, 10, Mono())
		w.Record(d, true, 5, Mono())
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
		w.Record(d, false, 10, Mono())
	}
	w.Record(2, true, 100, Mono()) // disk 2 now way over 1.5× the mean
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
	// 4 slots × 10ms, driven by synthetic stamps: a count stays in view for
	// the window's four slots and is gone once the window rolls past it.
	const slot = int64(10 * time.Millisecond)
	w := NewLoadWindow(2, 4, time.Duration(slot))
	at := func(k int64) int64 { return w.start + k*slot + slot/2 }
	w.Record(0, false, 100, at(0))
	for k := int64(0); k < 4; k++ {
		if s := w.snapshotAt(at(k)); s.Reads[0] != 100 {
			t.Fatalf("slot %d: reads %v, want the count still in view", k, s.Reads)
		}
	}
	if s := w.snapshotAt(at(4)); s.Reads[0] != 0 {
		t.Fatalf("slot 4: reads %v, want the count aged out", s.Reads)
	}
	// A live Snapshot on the real clock ages it out too.
	w.Record(1, false, 5, Mono())
	deadline := time.Now().Add(time.Second)
	for w.Snapshot().Reads[1] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("count never aged out of a 40ms window")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLoadWindowSlotBoundaries files records with synthetic Mono stamps on
// both sides of slot boundaries and checks each slot's tally: a record lands
// in the slot its stamp falls in, a snapshot sums exactly the covered slots,
// and a jump past the whole window clears it.
func TestLoadWindowSlotBoundaries(t *testing.T) {
	const slot = int64(time.Second)
	w := NewLoadWindow(2, 3, time.Second)
	edge := func(k int64) int64 { return w.start + k*slot } // first ns of slot k
	w.Record(0, false, 1, edge(0))
	w.Record(0, false, 2, edge(1)-1) // last ns of slot 0
	w.Record(0, false, 4, edge(1))   // first ns of slot 1
	w.Record(1, true, 8, edge(2)+slot/2)

	rows := func() (r, wr [3][2]int64) {
		for k := 0; k < 3; k++ {
			for d := 0; d < 2; d++ {
				r[k][d], wr[k][d] = w.reads[k*2+d].Load(), w.writes[k*2+d].Load()
			}
		}
		return
	}
	r, wr := rows()
	if r != [3][2]int64{{3, 0}, {4, 0}, {0, 0}} || wr != [3][2]int64{{0, 0}, {0, 0}, {0, 8}} {
		t.Fatalf("slot rows reads=%v writes=%v", r, wr)
	}
	s := w.snapshotAt(edge(2) + slot/2)
	if s.Reads[0] != 7 || s.Writes[1] != 8 || s.Load.Total != 15 {
		t.Fatalf("snapshot over slots 0-2: %+v", s)
	}
	if want := 2*slot + slot/2; s.WindowNanos != want {
		t.Errorf("covered %d ns, want %d", s.WindowNanos, want)
	}

	// Slot 3 recycles slot 0's row: only slots 1-3 stay in view.
	w.Record(0, false, 16, edge(3))
	if s := w.snapshotAt(edge(3)); s.Reads[0] != 20 || s.Writes[1] != 8 {
		t.Fatalf("snapshot over slots 1-3: reads=%v writes=%v", s.Reads, s.Writes)
	}
	if r, _ := rows(); r[0][0] != 16 {
		t.Fatalf("slot 3 filed into row %v, want row 0 recycled to 16", r)
	}

	// A stamp a full window past the last one clears every row.
	if s := w.snapshotAt(edge(7)); s.Load.Total != 0 {
		t.Fatalf("after a whole window idle: %+v", s)
	}
}

func TestLoadWindowReset(t *testing.T) {
	w := NewLoadWindow(2, 8, time.Second)
	w.Record(0, false, 7, Mono())
	w.Record(1, true, 9, Mono())
	w.Reset()
	s := w.Snapshot()
	if s.Reads[0] != 0 || s.Writes[1] != 0 || s.Load.Total != 0 {
		t.Errorf("after reset: %+v", s)
	}
}

func TestLoadWindowNilSafe(t *testing.T) {
	var w *LoadWindow
	w.Record(0, false, 1, Mono()) // must not panic
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
				w.Record(g, i%3 == 0, 1, Mono())
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
