package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
)

// fileElem is the element size of the file-backed arrays below, large enough
// that a column spans many pages and residency is tracked page by page.
const fileElem = 1024

// openFileColumns opens cols file-backed columns of size bytes each in a
// fresh directory, closed when the test ends.
func openFileColumns(t *testing.T, cols int, size int64) ([]blockdev.Device, []string) {
	t.Helper()
	dir := t.TempDir()
	devs := make([]blockdev.Device, cols)
	paths := make([]string, cols)
	for i := range devs {
		paths[i] = filepath.Join(dir, fmt.Sprintf("disk%d.img", i))
		d, err := blockdev.OpenFile(paths[i], size)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		devs[i] = d
	}
	return devs, paths
}

// TestTruncatedFileColumnFails is the array-level twin of blockdev's
// mapping-fault test: a column file truncated under its FileDevice makes that
// column's reads fail (on Linux, faults on the mapping that serves its
// resident pages); the array marks the column failed and still returns the
// right bytes.
func TestTruncatedFileColumnFails(t *testing.T) {
	const stripes = 4
	code := codes.MustNew("dcode", 5)
	devs, paths := openFileColumns(t, code.Cols(), stripes*int64(code.Rows())*fileElem)
	a, err := New(code, devs, fileElem, stripes)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(int(a.Size()), 9)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(paths[2], 0); err != nil {
		t.Fatal(err)
	}
	clear(got)
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatalf("read over a truncated column: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read over a truncated column returned wrong bytes")
	}
	if failed := a.FailedDisks(); len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("FailedDisks = %v, want [2]", failed)
	}
}

// TestArraysOverMappedFiles interleaves two arrays over the same FileDevices —
// one fanned out across its columns and one serial, both served from the
// shared mapping once pages are resident — and requires every read, and at
// the end every column, to equal a MemDevice twin's.
func TestArraysOverMappedFiles(t *testing.T) {
	const stripes = 8
	code := codes.MustNew("dcode", 7)
	colSize := stripes * int64(code.Rows()) * fileElem
	devs, _ := openFileColumns(t, code.Cols(), colSize)
	wide, err := New(code, devs, fileElem, stripes, WithConcurrency(code.Cols()))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := New(code, devs, fileElem, stripes, WithConcurrency(1))
	if err != nil {
		t.Fatal(err)
	}
	mems := make([]blockdev.Device, code.Cols())
	for i := range mems {
		mems[i] = blockdev.NewMem(colSize)
	}
	twin, err := New(code, mems, fileElem, stripes)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(22))
	size := twin.Size()
	for i := 0; i < 400; i++ {
		a := serial
		if rng.Intn(2) == 0 {
			a = wide
		}
		off := rng.Int63n(size)
		n := 1 + rng.Intn(int(min(size-off, 3*fileElem)))
		if rng.Intn(2) == 0 {
			p := pattern(n, byte(i))
			if _, err := a.WriteAt(p, off); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.WriteAt(p, off); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, want := make([]byte, n), make([]byte, n)
		if _, err := a.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.ReadAt(want, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d: %d bytes at %d differ from the memory twin", i, n, off)
		}
	}
	for i := range devs {
		got, want := make([]byte, colSize), make([]byte, colSize)
		if _, err := devs[i].ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := mems[i].ReadAt(want, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("column %d differs from the memory twin", i)
		}
	}
}
