package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"testing"
)

// openMapped opens a file device of size bytes in a fresh directory. It skips
// the test where column files are not mapped (off Linux).
func openMapped(tb testing.TB, size int64) (*FileDevice, string) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "col.img")
	d, err := OpenFile(path, size)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	if d.mem == nil {
		tb.Skip("column files are not mapped on this platform")
	}
	return d, path
}

// TestFileDeviceResidency pins the dispatch rule: a page's first access goes
// through the descriptor, which marks the page resident, and later accesses
// go through the mapping. The device's descriptor is swapped for one on a
// decoy file of other bytes, so each result shows which path served it.
func TestFileDeviceResidency(t *testing.T) {
	const pg = 1 << pageShift
	d, path := openMapped(t, 4*pg)
	col := bytes.Repeat([]byte{0xC0}, pg)
	if _, err := d.WriteAt(col, 0); err != nil {
		t.Fatal(err)
	}
	if !d.resident(0, pg) || d.resident(0, pg+1) {
		t.Fatal("a descriptor write must mark exactly the pages it moved")
	}

	decoyPath := filepath.Join(t.TempDir(), "decoy.img")
	decoyBytes := bytes.Repeat([]byte{0xD0}, 4*pg)
	if err := os.WriteFile(decoyPath, decoyBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	decoy, err := os.OpenFile(decoyPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	colFile := d.f
	d.f = decoy
	defer func() {
		d.f = colFile
		if err := decoy.Close(); err != nil {
			t.Error(err)
		}
	}()

	got := make([]byte, pg)
	for _, step := range []struct {
		off  int64
		want []byte
		path string
	}{
		{0, col, "page 0 from the mapping: it is resident"},
		{pg, decoyBytes[:pg], "page 1 through the descriptor: first access"},
		{pg, make([]byte, pg), "page 1 from the mapping: resident since the last read"},
		{pg + pg/2, decoyBytes[:pg], "pages 1-2 through the descriptor: page 2 is not resident"},
	} {
		if _, err := d.ReadVecAt([][]byte{got[:pg/3], got[pg/3:]}, step.off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, step.want) {
			t.Fatalf("read at %d: want %s", step.off, step.path)
		}
	}

	// A write over resident pages lands in the column file through the
	// mapping; the descriptor (the decoy) never sees it.
	if _, err := d.WriteVecAt([][]byte{col[:pg/2], col[pg/2:]}, pg); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b[pg:2*pg], col) {
		t.Fatalf("a write over resident pages did not reach the column file (%v)", err)
	}
	if b, err := os.ReadFile(decoyPath); err != nil || !bytes.Equal(b, decoyBytes) {
		t.Fatalf("a write over resident pages reached the descriptor (%v)", err)
	}

	// Calls the mapping serves do not allocate.
	bufs := [][]byte{got}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.ReadVecAt(bufs, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.WriteAt(got, pg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("resident calls allocate %v times per run, want 0", allocs)
	}
}

// TestFileDeviceMappingFaultIsAnError truncates a column file under its
// device: each Device method the mapping serves must then return an error
// wrapping syscall.EIO, not crash, and leave the goroutine's panic-on-fault
// setting as it found it.
func TestFileDeviceMappingFaultIsAnError(t *testing.T) {
	const size = 64 << 10
	d, path := openMapped(t, size)
	if _, err := d.WriteAt(bytes.Repeat([]byte{0x5A}, size), 0); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4096)
	if _, err := d.ReadAt(p, 4096); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(false))
	for i, c := range []struct {
		name string
		call func() (int, error)
	}{
		{"ReadAt", func() (int, error) { return d.ReadAt(p, 4096) }},
		{"ReadVecAt", func() (int, error) { return d.ReadVecAt([][]byte{p[:100], p[100:]}, 8192) }},
		{"WriteAt", func() (int, error) { return d.WriteAt(p, 12288) }},
		{"WriteVecAt", func() (int, error) { return d.WriteVecAt([][]byte{p[:100], p[100:]}, 16384) }},
	} {
		prior := i%2 == 1
		debug.SetPanicOnFault(prior)
		if _, err := c.call(); !errors.Is(err, syscall.EIO) {
			t.Errorf("%s over a truncated file: %v, want an error wrapping EIO", c.name, err)
		}
		if debug.SetPanicOnFault(false) != prior {
			t.Errorf("%s did not restore panic-on-fault to %v", c.name, prior)
		}
	}
}

// TestMappingGuardRaisesOtherPanics pins that the fault guard turns only
// memory faults into errors: any other panic passes through it.
func TestMappingGuardRaisesOtherPanics(t *testing.T) {
	r := func() (r any) {
		defer func() { r = recover() }()
		var err error
		defer recoverFault(false, &err)
		panic("not a fault")
	}()
	if r != "not a fault" {
		t.Fatalf("the guard let through %v, want the original panic", r)
	}
}

// TestFileDeviceMappingCoherence checks that the mapping and the file stay
// one: what the mapping writes an independent descriptor reads, what an
// independent descriptor writes the mapping serves, and Sync followed by a
// reopen reads the mapped writes back.
func TestFileDeviceMappingCoherence(t *testing.T) {
	const size = 256 << 10
	d, path := openMapped(t, size)
	if _, err := d.WriteAt(make([]byte, size), 0); err != nil {
		t.Fatal(err)
	}
	other, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := other.Close(); err != nil {
			t.Error(err)
		}
	}()
	ours := bytes.Repeat([]byte("mapped "), 1000)
	theirs := bytes.Repeat([]byte("pwrite "), 1000)
	last := bytes.Repeat([]byte{0x7E}, 9000)
	if !d.resident(1234, len(ours)) || !d.resident(100000, len(theirs)) || !d.resident(size-9000, len(last)) {
		t.Fatal("the fill left pages non-resident")
	}

	if _, err := d.WriteVecAt([][]byte{ours[:3000], ours[3000:]}, 1234); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(ours))
	if _, err := other.ReadAt(got, 1234); err != nil || !bytes.Equal(got, ours) {
		t.Fatalf("a descriptor does not read what the mapping wrote (%v)", err)
	}
	if _, err := other.WriteAt(theirs, 100000); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(got, 100000); err != nil || !bytes.Equal(got, theirs) {
		t.Fatalf("the mapping does not serve what a descriptor wrote (%v)", err)
	}

	if _, err := d.WriteAt(last, size-9000); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, size)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, c := range []struct {
		off  int64
		want []byte
	}{{1234, ours}, {100000, theirs}, {size - 9000, last}} {
		got := make([]byte, len(c.want))
		if _, err := re.ReadAt(got, c.off); err != nil || !bytes.Equal(got, c.want) {
			t.Fatalf("after Sync and a reopen, %d bytes at %d are wrong (%v)", len(got), c.off, err)
		}
	}
}

// BenchmarkFileDeviceCall prices one FileDevice call on resident pages, which
// the shared mapping serves — read and write, 4 KiB (an element) and 28 KiB
// (a column run) — and the 28 KiB writes that fill a fresh file, which the
// descriptor serves. Every case must report 0 allocs/op.
func BenchmarkFileDeviceCall(b *testing.B) {
	const size = 8 << 20
	for _, op := range []string{"read", "write"} {
		for _, n := range []int{4 << 10, 28 << 10} {
			b.Run(fmt.Sprintf("%s/%dKiB", op, n>>10), func(b *testing.B) {
				d, _ := openMapped(b, size)
				if _, err := d.WriteAt(make([]byte, size), 0); err != nil {
					b.Fatal(err)
				}
				bufs := [][]byte{make([]byte, n)}
				b.ReportAllocs()
				b.ResetTimer()
				for i, off := 0, int64(0); i < b.N; i++ {
					var err error
					if op == "write" {
						_, err = d.WriteVecAt(bufs, off)
					} else {
						_, err = d.ReadVecAt(bufs, off)
					}
					if err != nil {
						b.Fatal(err)
					}
					if off += int64(n); off+int64(n) > size {
						off = 0
					}
				}
			})
		}
	}
	b.Run("fill/28KiB", func(b *testing.B) {
		const n, perFile = 28 << 10, 256
		path := filepath.Join(b.TempDir(), "fill.img")
		p := make([]byte, n)
		var d *FileDevice
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%perFile == 0 {
				b.StopTimer()
				if d != nil {
					if err := errors.Join(d.Close(), os.Remove(path)); err != nil {
						b.Fatal(err)
					}
				}
				var err error
				if d, err = OpenFile(path, perFile*n); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if _, err := d.WriteAt(p, int64(i%perFile)*n); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	})
}
