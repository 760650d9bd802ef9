package blockdev

// O_DIRECT support for FileDevice. OpenFileDirect (direct_linux.go) arms a
// second, O_DIRECT descriptor next to the buffered one and probes the
// alignment the filesystem demands at open time. The dispatch rule, applied
// per request:
//
//   - offset and length aligned, caller memory aligned → the O_DIRECT
//     descriptor serves the request in place (no page cache, no copy);
//   - offset and length aligned, caller memory unaligned → the request goes
//     through a pooled align-allocated bounce buffer, still O_DIRECT (one
//     copy — Go heap slices carry no alignment guarantee, so this is the
//     common case for stripe memory);
//   - offset or length unaligned → the buffered path serves it: the shared
//     mapping when its pages are resident, the buffered descriptor otherwise
//     (mmap.go; the kernel page cache handles sub-sector granularity, and
//     Linux keeps every view of one file coherent).
//
// Vectored calls (ReadVecAt/WriteVecAt) of more than one buffer take the
// buffered path: every iovec would need its own alignment, which the
// raid layer's caller-provided buffers cannot promise. A one-buffer call —
// the raid layer's contiguous runs — is dispatched like ReadAt/WriteAt. The async ring engine registers
// the buffered descriptor for the same reason (see uring_linux.go and the
// fallback matrix in DESIGN.md §6g).

import "unsafe"

// DirectAlign returns the probed O_DIRECT alignment in bytes, 0 when the
// device runs buffered only (OpenFile, unsupported filesystem, or a failed
// probe).
func (d *FileDevice) DirectAlign() int { return d.align }

// alignedRange reports whether a request's offset and length satisfy the
// direct descriptor's alignment.
func (d *FileDevice) alignedRange(n int, off int64) bool {
	a := int64(d.align)
	return n > 0 && int64(n)%a == 0 && off%a == 0
}

// memAligned reports whether the buffer's base address satisfies the
// alignment.
func (d *FileDevice) memAligned(p []byte) bool {
	return uintptr(unsafe.Pointer(&p[0]))%uintptr(d.align) == 0
}

func (d *FileDevice) directRead(p []byte, off int64) (int, error) {
	if d.memAligned(p) {
		return d.direct.ReadAt(p, off)
	}
	b := d.getBounce(len(p))
	n, err := d.direct.ReadAt(b, off)
	copy(p, b[:n])
	d.putBounce(b)
	return n, err
}

func (d *FileDevice) directWrite(p []byte, off int64) (int, error) {
	// The kernel drops the cached pages a direct write covers, so their next
	// buffered access goes through the descriptor again (mmap.go).
	d.setResident(off, len(p), false)
	if d.memAligned(p) {
		return d.direct.WriteAt(p, off)
	}
	b := d.getBounce(len(p))
	copy(b, p)
	n, err := d.direct.WriteAt(b, off)
	d.putBounce(b)
	return n, err
}

// getBounce returns an align-allocated buffer of exactly n bytes (n is
// already a multiple of the alignment — alignedRange gated it).
func (d *FileDevice) getBounce(n int) []byte {
	//lint:escape the bounce buffer is handed to the caller, which returns it via putBounce once the direct I/O completes; a pooled buffer too small for the request is intentionally dropped to the GC rather than re-pooled to keep serving undersized hits
	if v := d.bounce.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n]
		}
	}
	return alignedSlice(n, d.align)
}

func (d *FileDevice) putBounce(b []byte) {
	d.bounce.Put(&b)
}

// alignedSlice allocates an n-byte slice whose base address is a multiple
// of align (a power of two): over-allocate and cut at the boundary.
func alignedSlice(n, align int) []byte {
	raw := make([]byte, n+align)
	off := 0
	if rem := int(uintptr(unsafe.Pointer(&raw[0])) & uintptr(align-1)); rem != 0 {
		off = align - rem
	}
	return raw[off : off+n : off+n]
}
