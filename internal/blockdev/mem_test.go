package blockdev

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// TestMemDeviceContract runs MemDevice's whole contract on both media: a
// heap medium (1 MiB) and, on Linux, a mapped one (4 MiB, at least one huge
// page; mem_linux.go). Each case gets a fresh device.
func TestMemDeviceContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, d *MemDevice)
	}{
		{"read and write", func(t *testing.T, d *MemDevice) {
			size := d.Size()
			for _, off := range []int64{0, size/2 - 3, size - 16} {
				data := pattern(16, byte(off))
				if n, err := d.WriteAt(data, off); err != nil || n != 16 {
					t.Fatalf("WriteAt at %d = %d, %v", off, n, err)
				}
				got := make([]byte, 16)
				if n, err := d.ReadAt(got, off); err != nil || n != 16 {
					t.Fatalf("ReadAt at %d = %d, %v", off, n, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("ReadAt at %d = %x, want %x", off, got, data)
				}
			}
			// A vectored pair across the middle of the medium, read back
			// both whole and scattered.
			data := pattern(3<<12, 7)
			off := size/2 - 1<<12
			if n, err := d.WriteVecAt([][]byte{data[:5], data[5:4096], data[4096:]}, off); err != nil || n != len(data) {
				t.Fatalf("WriteVecAt = %d, %v", n, err)
			}
			got := make([]byte, len(data))
			if _, err := d.ReadAt(got, off); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("ReadAt after WriteVecAt: err %v, equal %v", err, bytes.Equal(got, data))
			}
			clear(got)
			if n, err := d.ReadVecAt([][]byte{got[:1], got[1:8000], got[8000:]}, off); err != nil || n != len(data) {
				t.Fatalf("ReadVecAt = %d, %v", n, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("ReadVecAt differs from what WriteVecAt stored")
			}
			if s := d.Stats(); s.Reads != 5 || s.Writes != 4 {
				t.Fatalf("stats = %+v, want 5 reads and 4 writes", s)
			}
		}},
		{"fail", func(t *testing.T, d *MemDevice) {
			d.Fail()
			checkCalls(t, d, 0, ErrFailed)
		}},
		{"replace", func(t *testing.T, d *MemDevice) {
			size := d.Size()
			if _, err := d.WriteAt(bytes.Repeat([]byte{0xA5}, int(size)), 0); err != nil {
				t.Fatal(err)
			}
			d.InjectBadSector(size / 3)
			d.SetWriteLimit(0)
			d.Fail()
			d.Replace()
			if s := d.Stats(); s != (Stats{}) {
				t.Fatalf("stats after Replace = %+v, want zero", s)
			}
			got := make([]byte, size)
			if _, err := d.ReadAt(got, 0); err != nil {
				t.Fatalf("read of a replaced device: %v", err)
			}
			if !bytes.Equal(got, make([]byte, size)) {
				t.Fatal("Replace left old contents on the medium")
			}
			if _, err := d.WriteAt([]byte{9}, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := d.ReadAt(got[:2], 0); err != nil || got[1] != 9 {
				t.Fatalf("a replaced device dropped a write (the old write limit): %x, %v", got[:2], err)
			}
		}},
		{"bad sector", func(t *testing.T, d *MemDevice) {
			off := d.Size() - 100
			d.InjectBadSector(off)
			if _, err := d.ReadAt(make([]byte, 8), off-4); !errors.Is(err, ErrBadSector) {
				t.Fatalf("ReadAt over a bad sector: %v", err)
			}
			if _, err := d.ReadVecAt([][]byte{make([]byte, 4), make([]byte, 4)}, off-4); !errors.Is(err, ErrBadSector) {
				t.Fatalf("ReadVecAt over a bad sector: %v", err)
			}
			if _, err := d.ReadAt(make([]byte, 8), off+1); err != nil {
				t.Fatalf("a read beside the bad sector: %v", err)
			}
			if _, err := d.WriteVecAt([][]byte{make([]byte, 2), make([]byte, 2)}, off-1); err != nil {
				t.Fatal(err)
			}
			if _, err := d.ReadAt(make([]byte, 8), off-4); err != nil {
				t.Fatalf("the sector is still bad after a rewrite: %v", err)
			}
		}},
		{"write limit", func(t *testing.T, d *MemDevice) {
			d.SetWriteLimit(1)
			if _, err := d.WriteAt([]byte{1}, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := d.WriteVecAt([][]byte{{2}, {2}}, 1); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 3)
			if _, err := d.ReadAt(got, 0); err != nil || !bytes.Equal(got, []byte{1, 0, 0}) {
				t.Fatalf("persisted %v (%v), want [1 0 0]", got, err)
			}
			d.SetWriteLimit(-1)
			if _, err := d.WriteAt([]byte{3}, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := d.ReadAt(got, 0); err != nil || got[2] != 3 {
				t.Fatalf("lifting the limit did not restore persistence: %v", got)
			}
		}},
		{"corrupt", func(t *testing.T, d *MemDevice) {
			off := d.Size() - 1
			if _, err := d.WriteAt([]byte{0xAA}, off); err != nil {
				t.Fatal(err)
			}
			d.Corrupt(off)
			d.Corrupt(d.Size()) // out of range: no-op
			d.Corrupt(-1)
			got := make([]byte, 1)
			if _, err := d.ReadAt(got, off); err != nil || got[0] != 0x55 {
				t.Fatalf("corrupted byte = %#x (%v), want 0x55", got[0], err)
			}
		}},
		{"close", func(t *testing.T, d *MemDevice) {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			checkCalls(t, d, 0, ErrClosed)
			// No call reaches the released medium.
			d.Corrupt(0)
			d.InjectBadSector(0)
			d.Replace()
			d.Fail()
			checkCalls(t, d, d.Size()-1, ErrClosed)
			if err := d.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		}},
		{"lend", func(t *testing.T, d *MemDevice) {
			// A lend is the ReadVecAt of its range without the copy: the
			// same bytes, the same Stats, the same failures.
			data := pattern(3<<12, 5)
			off := d.Size()/2 - 1<<12
			if _, err := d.WriteAt(data, off); err != nil {
				t.Fatal(err)
			}
			before := d.Stats()
			got := make([]byte, len(data))
			if _, err := d.ReadVecAt([][]byte{got[:100], got[100:]}, off); err != nil {
				t.Fatal(err)
			}
			read := d.Stats()
			view, err := d.Lend(len(data), off)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(view, data) || !bytes.Equal(view, got) {
				t.Fatal("lent view differs from what was written")
			}
			if after := d.Stats(); after.Reads-read.Reads != read.Reads-before.Reads ||
				after.BytesRead-read.BytesRead != read.BytesRead-before.BytesRead {
				t.Fatalf("stats: ReadVecAt moved them %+v → %+v, Lend %+v → %+v", before, read, read, after)
			}
			if n := d.Loans(); n != 1 {
				t.Fatalf("%d loans out, want 1", n)
			}
			d.Return()
			if n := d.Loans(); n != 0 {
				t.Fatalf("%d loans out after Return, want 0", n)
			}
			for _, bad := range []struct {
				n   int
				off int64
			}{{1, -1}, {2, d.Size() - 1}, {int(d.Size()) + 1, 0}} {
				if _, err := d.Lend(bad.n, bad.off); err == nil {
					t.Errorf("Lend of %d bytes at %d outside the device succeeded", bad.n, bad.off)
				}
			}
			stats := d.Stats()
			d.InjectBadSector(off + 5000)
			_, verr := d.ReadVecAt([][]byte{got}, off)
			_, lerr := d.Lend(len(data), off)
			if !errors.Is(verr, ErrBadSector) || !errors.Is(lerr, ErrBadSector) {
				t.Fatalf("over a bad sector: ReadVecAt %v, Lend %v", verr, lerr)
			}
			if d.Stats() != stats || d.Loans() != 0 {
				t.Fatalf("a failed lend moved the stats (%+v → %+v) or left a loan (%d)", stats, d.Stats(), d.Loans())
			}
		}},
		{"lend across replace", func(t *testing.T, d *MemDevice) {
			data := pattern(4096, 3)
			if _, err := d.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			view, err := d.Lend(len(data), 0)
			if err != nil {
				t.Fatal(err)
			}
			d.Fail()
			d.Replace()
			got := make([]byte, len(data))
			if _, err := d.ReadAt(got, 0); err != nil || !bytes.Equal(got, make([]byte, len(data))) {
				t.Fatalf("replaced device reads %x…, %v; want zeros", got[:8], err)
			}
			if !bytes.Equal(view, data) {
				t.Fatal("Replace changed a lent view")
			}
			d.Return()
		}},
		{"lend across close", func(t *testing.T, d *MemDevice) {
			// A view stays readable while Close runs and after it; every
			// call after Close, a lend included, returns ErrClosed.
			data := pattern(1<<16, 11)
			if _, err := d.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			view, err := d.Lend(len(data), 0)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error)
			go func() { done <- d.Close() }()
			for i := 0; i < 8; i++ {
				if !bytes.Equal(view, data) {
					t.Fatal("lent view changed under Close")
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			checkCalls(t, d, 0, ErrClosed)
			if !bytes.Equal(view, data) {
				t.Fatal("lent view changed after Close")
			}
			d.Return()
			if n := d.Loans(); n != 0 {
				t.Fatalf("%d loans out after Return, want 0", n)
			}
		}},
		{"close under load", func(t *testing.T, d *MemDevice) {
			// Close while four goroutines read and write: every call
			// either completes or returns ErrClosed, and none touches
			// the released medium.
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					p := make([]byte, 4096)
					for i := 0; ; i++ {
						off := int64(i*4096+g*1024) % (d.Size() - 4096)
						_, werr := d.WriteAt(p, off)
						_, rerr := d.ReadVecAt([][]byte{p[:100], p[100:]}, off)
						if errors.Is(werr, ErrClosed) && errors.Is(rerr, ErrClosed) {
							return
						}
						if werr != nil && !errors.Is(werr, ErrClosed) || rerr != nil && !errors.Is(rerr, ErrClosed) {
							t.Errorf("call racing Close: %v, %v", werr, rerr)
							return
						}
					}
				}(g)
			}
			if err := d.Close(); err != nil {
				t.Error(err)
			}
			wg.Wait()
		}},
	}
	for _, m := range []struct {
		name string
		size int64
	}{{"heap", 1 << 20}, {"mapped", 4 << 20}} {
		for _, c := range cases {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				d := NewMem(m.size)
				defer d.Close()
				if d.Size() != m.size {
					t.Fatalf("size = %d, want %d", d.Size(), m.size)
				}
				c.run(t, d)
			})
		}
	}
}

// pattern returns n bytes that differ from zero and from one seed to another.
func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i) ^ seed | 1
	}
	return p
}

// checkCalls makes each of the device's four I/O calls, and a lend, on one
// byte at off and requires every one to fail with want.
func checkCalls(t *testing.T, d *MemDevice, off int64, want error) {
	t.Helper()
	for name, call := range map[string]func() (int, error){
		"ReadAt":     func() (int, error) { return d.ReadAt(make([]byte, 1), off) },
		"WriteAt":    func() (int, error) { return d.WriteAt([]byte{1}, off) },
		"ReadVecAt":  func() (int, error) { return d.ReadVecAt([][]byte{make([]byte, 1)}, off) },
		"WriteVecAt": func() (int, error) { return d.WriteVecAt([][]byte{{1}}, off) },
		"Lend": func() (int, error) {
			v, err := d.Lend(1, off)
			if err == nil {
				d.Return()
			}
			return len(v), err
		},
	} {
		if _, err := call(); !errors.Is(err, want) {
			t.Errorf("%s: %v, want %v", name, err, want)
		}
	}
}
