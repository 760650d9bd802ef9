//go:build linux

package blockdev

import (
	"io"
	"runtime"
	"syscall"
	"unsafe"
)

// iovChunk bounds one syscall's iovec list. It stays far under the kernel's
// UIO_MAXIOV (1024) so the array fits comfortably on the stack; the raid
// layer's vectored calls carry at most one stripe's rows, well below this.
const iovChunk = 64

// ReadVecAt implements Device as a true scatter read. When every page of the
// range is resident it is a copy out of the shared mapping (mmap.go).
// Otherwise it is one preadv(2) per call (per iovChunk chunk), issued via raw
// Syscall6 so the repository stays dependency-free, and the pages it moved
// become resident. The kernel moves the contiguous file range directly into
// the caller's buffers — no staging copy, no per-buffer syscalls. EINTR and
// short reads advance the cursor and retry.
func (d *FileDevice) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	if err := checkRange(VecLen(bufs), off, d.size); err != nil {
		return 0, err
	}
	if d.resident(off, VecLen(bufs)) {
		return d.mapCopy(bufs, off, false)
	}
	n, err := d.vecIO(bufs, off, syscall.SYS_PREADV)
	d.markResident(off, n)
	return n, err
}

// WriteVecAt implements Device as a true gather write: a copy into the
// mapping over resident pages, pwritev(2) otherwise; see ReadVecAt.
func (d *FileDevice) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	if err := checkRange(VecLen(bufs), off, d.size); err != nil {
		return 0, err
	}
	if d.resident(off, VecLen(bufs)) {
		return d.mapCopy(bufs, off, true)
	}
	n, err := d.vecIO(bufs, off, syscall.SYS_PWRITEV)
	d.markResident(off, n)
	return n, err
}

func (d *FileDevice) vecIO(bufs [][]byte, off int64, trap uintptr) (int, error) {
	fd := d.f.Fd()
	var iovs [iovChunk]syscall.Iovec
	total := 0
	bi, bo := 0, 0 // cursor: the next unmoved byte is bufs[bi][bo:]
	for {
		for bi < len(bufs) && bo >= len(bufs[bi]) {
			bi, bo = bi+1, 0
		}
		if bi >= len(bufs) {
			return total, nil
		}
		nv := 0
		for j, jo := bi, bo; j < len(bufs) && nv < iovChunk; j, jo = j+1, 0 {
			b := bufs[j][jo:]
			if len(b) == 0 {
				continue
			}
			iovs[nv].Base = &b[0]
			iovs[nv].SetLen(len(b))
			nv++
		}
		// pos is split into two registers; on 64-bit the kernel ignores the
		// high word (pos_h << 64 == 0), on 32-bit it recombines them.
		n, _, errno := syscall.Syscall6(trap, fd,
			uintptr(unsafe.Pointer(&iovs[0])), uintptr(nv),
			uintptr(off), uintptr(uint64(off)>>32), 0)
		runtime.KeepAlive(bufs)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return total, errno
		}
		if n == 0 {
			return total, io.ErrUnexpectedEOF
		}
		total += int(n)
		off += int64(n)
		for adv := int(n); adv > 0; {
			rem := len(bufs[bi]) - bo
			if adv < rem {
				bo += adv
				break
			}
			adv -= rem
			bi, bo = bi+1, 0
		}
	}
}
