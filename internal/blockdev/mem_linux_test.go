//go:build linux

package blockdev

import (
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// A medium of at least one huge page is a mapping of its own; a smaller one
// is on the heap.
func TestMediaMappedFromOneHugePage(t *testing.T) {
	for size, want := range map[int64]bool{hugePage - 1: false, hugePage: true, 28 << 20: true} {
		d := NewMem(size)
		if d.m.mapped != want {
			t.Errorf("NewMem(%d) mapped = %v, want %v", size, d.m.mapped, want)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Devices dropped without Close are unmapped by their media's finalizer: 64
// large devices, each written and dropped with a collection between them,
// leave the huge-page-advised mappings of the process about where they were.
// The kernel merges adjacent anonymous mappings with the same flags, so the
// number of mappings cannot show a leak; their bytes can.
func TestDroppedMediaAreUnmapped(t *testing.T) {
	const size, drops = 4 << 20, 64
	base := advisedBytes(t)
	for i := 0; i < drops; i++ {
		d := NewMem(size)
		if _, err := d.WriteAt([]byte{1}, int64(i)<<12); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
	}
	// Finalizers run on their own goroutine after the collection that
	// finds their object unreachable.
	var n int64
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		if n = advisedBytes(t); n <= base+8*size {
			return
		}
	}
	t.Fatalf("%d MiB in huge-page mappings after dropping %d devices of %d MiB, %d MiB before",
		n>>20, drops, size>>20, base>>20)
}

// A mapped medium closed while a view of it is lent stays mapped until the
// view is returned, and is unmapped then.
func TestReturnedLoanUnmaps(t *testing.T) {
	const size = 4 << 20
	d := NewMem(size)
	view, err := d.Lend(size, 0)
	if err != nil {
		t.Fatal(err)
	}
	withMedium := advisedBytes(t)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := advisedBytes(t); n != withMedium {
		t.Fatalf("Close under a loan unmapped the medium: %d MiB advised, %d before", n>>20, withMedium>>20)
	}
	if view[size-1] != 0 {
		t.Fatal("lent view of a zeroed medium reads non-zero")
	}
	d.Return()
	if n := advisedBytes(t); n != withMedium-size {
		t.Fatalf("%d MiB advised after the last Return, want %d", n>>20, (withMedium-size)>>20)
	}
}

// Devices dropped without Close, in a program that never collects itself,
// are unmapped all the same: each new mapping accounts for the bytes still
// mapped and forces a collection when they outgrow the pacer's goal, so 64
// dropped 4 MiB devices leave at most about two floors' worth (2 ×
// minMappedGoal) in huge-page mappings, not 256 MiB. The test reads smaps
// once, after giving the finalizers time: reading it allocates, and a
// polling loop would collect by itself.
func TestDroppedMediaArePaced(t *testing.T) {
	const size, drops = 4 << 20, 64
	base := advisedBytes(t)
	for i := 0; i < drops; i++ {
		d := NewMem(size)
		if _, err := d.WriteAt([]byte{1}, int64(i)<<12); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	if n := advisedBytes(t); n > base+2*minMappedGoal {
		t.Fatalf("%d MiB in huge-page mappings after dropping %d devices of %d MiB, %d MiB before",
			n>>20, drops, size>>20, base>>20)
	}
}

// advisedBytes sums the sizes of the process's mappings advised
// MADV_HUGEPAGE: those whose VmFlags in /proc/self/smaps include "hg".
func advisedBytes(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	var total, kb int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 3 && f[0] == "Size:":
			if kb, err = strconv.ParseInt(f[1], 10, 64); err != nil {
				t.Fatalf("smaps: %q: %v", line, err)
			}
		case len(f) > 0 && f[0] == "VmFlags:" && slices.Contains(f[1:], "hg"):
			total += kb << 10
		}
	}
	return total
}

// BenchmarkMemDeviceFill prices a 64 MiB MemDevice from allocation to fully
// written, as an array set-up takes its columns: NewMem, 1 MiB writes over
// the whole medium, Close. Each iteration starts from a heap whose free
// pages are back with the kernel (outside the timer), as the benchmark
// program's set-ups do. minflt/MiB is the minor page faults per MiB filled:
// 256 when the medium is faulted in one 4 KiB page at a time, 0.5 on 2 MiB
// huge pages.
func BenchmarkMemDeviceFill(b *testing.B) {
	const size = 64 << 20
	p := make([]byte, 1<<20)
	b.SetBytes(size)
	var faults int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		debug.FreeOSMemory()
		before := minorFaults(b)
		b.StartTimer()
		d := NewMem(size)
		for off := int64(0); off < size; off += int64(len(p)) {
			if _, err := d.WriteAt(p, off); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		faults += minorFaults(b) - before
		b.StartTimer()
	}
	b.ReportMetric(float64(faults)/float64(b.N)/(size>>20), "minflt/MiB")
}

// minorFaults returns the process's minor page faults so far.
func minorFaults(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return int64(ru.Minflt)
}
