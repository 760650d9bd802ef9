package blockdev

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestMemReadWriteRoundTrip(t *testing.T) {
	d := NewMem(64)
	if d.Size() != 64 {
		t.Fatalf("size = %d", d.Size())
	}
	data := []byte("hello block device")
	if n, err := d.WriteAt(data, 8); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := d.ReadAt(got, 8); err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemRangeChecks(t *testing.T) {
	d := NewMem(16)
	if _, err := d.ReadAt(make([]byte, 8), 10); err == nil {
		t.Fatal("overlong read accepted")
	}
	if _, err := d.WriteAt(make([]byte, 8), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestDeviceRangeChecks: every call of both local devices refuses a range
// outside the device — a negative offset, a range past the end, one whose
// end overflows int64 — with an error, not a panic, and a refused write
// neither lands nor grows a file. The last in-range bytes still serve.
func TestDeviceRangeChecks(t *testing.T) {
	const size = 1 << 20
	path := filepath.Join(t.TempDir(), "col.img")
	file, err := OpenFile(path, size)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	devs := map[string]Device{"mem": NewMem(size), "file": file}
	calls := map[string]func(d Device, b []byte, off int64) (int, error){
		"ReadAt":     Device.ReadAt,
		"WriteAt":    Device.WriteAt,
		"ReadVecAt":  func(d Device, b []byte, off int64) (int, error) { return d.ReadVecAt([][]byte{b[:1], b[1:]}, off) },
		"WriteVecAt": func(d Device, b []byte, off int64) (int, error) { return d.WriteVecAt([][]byte{b[:1], b[1:]}, off) },
	}
	cases := []struct {
		off int64
		n   int
	}{
		{-1, 16},
		{size - 8, 16},
		{size, 1},
		{1 << 30, 4096},
		{math.MaxInt64 - 10, 16},
		{math.MaxInt64, 4096},
	}
	for dn, d := range devs {
		for cn, call := range calls {
			for _, c := range cases {
				if _, err := call(d, make([]byte, c.n), c.off); err == nil {
					t.Errorf("%s %s of %d bytes at %d accepted", dn, cn, c.n, c.off)
				}
			}
			if _, err := call(d, make([]byte, 16), size-16); err != nil {
				t.Errorf("%s %s of the last 16 bytes: %v", dn, cn, err)
			}
		}
	}
	if st, err := os.Stat(path); err != nil || st.Size() != size {
		t.Fatalf("column file after refused writes: %v, err %v; want %d bytes", st.Size(), err, size)
	}
}

func TestMemNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMem(-1) did not panic")
		}
	}()
	NewMem(-1)
}

func TestMemFailAndReplace(t *testing.T) {
	d := NewMem(16)
	d.WriteAt([]byte{1, 2, 3}, 0)
	d.Fail()
	if _, err := d.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrFailed) {
		t.Fatalf("read after Fail: %v", err)
	}
	if _, err := d.WriteAt([]byte{1}, 0); !errors.Is(err, ErrFailed) {
		t.Fatalf("write after Fail: %v", err)
	}
	d.Replace()
	got := make([]byte, 3)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Fatal("Replace did not blank the media")
	}
}

func TestMemBadSector(t *testing.T) {
	d := NewMem(32)
	d.InjectBadSector(5)
	if _, err := d.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrBadSector) {
		t.Fatal("bad sector not reported")
	}
	// A read that avoids the sector succeeds.
	if _, err := d.ReadAt(make([]byte, 4), 8); err != nil {
		t.Fatal(err)
	}
	// Rewriting heals it.
	if _, err := d.WriteAt(make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(make([]byte, 8), 0); err != nil {
		t.Fatalf("sector still bad after rewrite: %v", err)
	}
}

func TestMemStats(t *testing.T) {
	d := NewMem(32)
	d.WriteAt(make([]byte, 8), 0)
	d.ReadAt(make([]byte, 4), 0)
	d.ReadAt(make([]byte, 4), 4)
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 2 || s.BytesWritten != 8 || s.BytesRead != 8 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMemCorrupt(t *testing.T) {
	d := NewMem(8)
	d.WriteAt([]byte{0xAA}, 3)
	d.Corrupt(3)
	got := make([]byte, 1)
	d.ReadAt(got, 3)
	if got[0] != 0x55 {
		t.Fatalf("corrupt byte = %x, want flipped 0x55", got[0])
	}
	d.Corrupt(100) // out of range: no-op, no panic
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Size() != 1024 {
		t.Fatalf("size = %d", d.Size())
	}
	data := []byte("persisted")
	if _, err := d.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file device round trip mismatch")
	}
}

func TestOpenFileBadPath(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x"), 16); err == nil {
		t.Fatal("bad path accepted")
	}
}

func TestSetWriteLimit(t *testing.T) {
	d := NewMem(16)
	d.SetWriteLimit(1)
	if _, err := d.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	// Second write reports success but must not persist (volatile cache).
	if _, err := d.WriteAt([]byte{2}, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	d.ReadAt(got, 0)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("persistence = %v, want [1 0]", got)
	}
	d.SetWriteLimit(-1)
	if _, err := d.WriteAt([]byte{3}, 1); err != nil {
		t.Fatal(err)
	}
	d.ReadAt(got, 0)
	if got[1] != 3 {
		t.Fatal("lifting the limit did not restore persistence")
	}
	// A replacement disk is fresh media: it persists every write, whatever
	// limit the disk it replaces had reached.
	d.SetWriteLimit(0)
	d.Replace()
	if _, err := d.WriteAt([]byte{4}, 0); err != nil {
		t.Fatal(err)
	}
	d.ReadAt(got, 0)
	if got[0] != 4 {
		t.Fatal("a replaced disk kept the old disk's write limit and dropped the write")
	}
}

func TestDelayedDelegates(t *testing.T) {
	mem := NewMem(1024)
	dev := &Delayed{Device: mem, Delay: time.Microsecond}
	if _, err := dev.WriteAt([]byte{1, 2, 3}, 5); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	start := time.Now()
	if _, err := dev.ReadAt(buf, 5); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < time.Microsecond {
		t.Fatal("service time not applied")
	}
	if buf[0] != 1 || buf[2] != 3 {
		t.Fatalf("read through wrapper got %v", buf)
	}
	if dev.Size() != 1024 {
		t.Fatalf("Size = %d", dev.Size())
	}
}

// TestDelayedMaxInflight pins the queue-depth service model: with k slots,
// n overlapping requests serialize into ceil(n/k) service rounds.
func TestDelayedMaxInflight(t *testing.T) {
	const delay = 20 * time.Millisecond
	run := func(inflight, clients int) time.Duration {
		d := &Delayed{Device: NewMem(1 << 12), Delay: delay, MaxInflight: inflight}
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				buf := make([]byte, 16)
				if _, err := d.ReadAt(buf, int64(i*16)); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		return time.Since(start)
	}

	// 6 clients over 2 slots: at least 3 serial rounds.
	if e := run(2, 6); e < 3*delay {
		t.Fatalf("MaxInflight=2: elapsed %v, want >= %v", e, 3*delay)
	}
	// Unlimited (0): all 6 overlap in roughly one round.
	if e := run(0, 6); e >= 3*delay {
		t.Fatalf("MaxInflight=0: elapsed %v, want < %v (unbounded overlap)", e, 3*delay)
	}
	// MaxInflight=1 fully serializes.
	if e := run(1, 3); e < 3*delay {
		t.Fatalf("MaxInflight=1: elapsed %v, want >= %v", e, 3*delay)
	}
}
