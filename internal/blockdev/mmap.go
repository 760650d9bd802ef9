package blockdev

// Resident pages served from a shared mapping. On Linux, OpenFile maps the
// whole column file once (MAP_SHARED, read/write; mmap_linux.go) and keeps
// one atomic residency flag per page. The rule, applied to every request:
//
//   - every page the request touches is resident → copy to or from the
//     mapping: the page is already in the page cache, so the call is a memcpy;
//   - otherwise → the buffered descriptor serves it (pread/pwrite,
//     preadv/pwritev) and the pages it moved become resident.
//
// The descriptor populates, the mapping serves. Filling a fresh file through
// the mapping would take a page fault per page (zero-fill and block
// allocation, no large folios) and hold the P meanwhile; the descriptor
// builds the page cache in large folios and releases the P for the syscall.
//
// The flags only pick the faster path: the mapping and the descriptor share
// one page cache, so either is correct for any page. Eviction does not clear
// a flag; a page the kernel dropped makes the mapping take a major fault,
// which stays correct but holds the P for the read. Nothing clears a flag:
// the mapping and the descriptor are the device's only two paths, and both
// go through the page cache.
//
// A fault on the mapping — EIO under a page, ENOSPC while filling a hole, the
// file truncated underneath — becomes an error wrapping syscall.EIO
// (debug.SetPanicOnFault plus recover), which the raid layer treats like an
// EIO from the descriptor: the column fails.

import (
	"fmt"
	"runtime/debug"
	"syscall"
)

// pageShift sets the residency granularity to 4 KiB, the page size of amd64
// and of most arm64 kernels. A larger page is tracked in 4 KiB parts, so its
// first access goes through the descriptor once per part.
const pageShift = 12

// pageRange returns the first and last page of [off, off+n), and whether the
// range is non-empty and lies wholly inside the mapping.
func (d *FileDevice) pageRange(off int64, n int) (first, last int64, ok bool) {
	if d.mem == nil || n <= 0 || off < 0 || off > int64(len(d.mem))-int64(n) {
		return 0, 0, false
	}
	return off >> pageShift, (off + int64(n) - 1) >> pageShift, true
}

// resident reports whether every page of [off, off+n) is resident, so that
// the mapping may serve the request. It is false on a device with no mapping.
func (d *FileDevice) resident(off int64, n int) bool {
	first, last, ok := d.pageRange(off, n)
	if !ok {
		return false
	}
	for pg := first; pg <= last; pg++ {
		if !d.res[pg].Load() {
			return false
		}
	}
	return true
}

// markResident marks the pages of [off, off+n) resident; a range reaching
// outside the mapping changes nothing.
func (d *FileDevice) markResident(off int64, n int) {
	first, last, ok := d.pageRange(off, n)
	if !ok {
		return
	}
	for pg := first; pg <= last; pg++ {
		d.res[pg].Store(true)
	}
}

// mapCopy moves the contiguous range at off between bufs and the mapping:
// into the mapping when write is set, out of it otherwise. The caller has
// checked the range with resident. A fault ends the copy with an error
// wrapping syscall.EIO, and n counts the buffers copied before it.
func (d *FileDevice) mapCopy(bufs [][]byte, off int64, write bool) (n int, err error) {
	defer recoverFault(debug.SetPanicOnFault(true), &err)
	for _, b := range bufs {
		if write {
			copy(d.mem[off+int64(n):], b)
		} else {
			copy(b, d.mem[off+int64(n):])
		}
		n += len(b)
	}
	return n, nil
}

// recoverFault is mapCopy's deferred guard: it restores the goroutine's
// panic-on-fault setting to old and turns a memory fault into *err. A panic
// that is not a fault is raised again.
func recoverFault(old bool, err *error) {
	debug.SetPanicOnFault(old)
	r := recover()
	if r == nil {
		return
	}
	if f, ok := r.(interface{ Addr() uintptr }); ok {
		*err = fmt.Errorf("blockdev: fault at %#x in file mapping: %w", f.Addr(), syscall.EIO)
		return
	}
	panic(r)
}
