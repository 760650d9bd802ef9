//go:build linux

package blockdev

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
)

// hugePage is the smallest medium mapped on its own: one transparent huge
// page on amd64 and arm64. The Go heap hands out 4 KiB pages, so a heap
// medium is zeroed one page fault per 4 KiB on first touch; a mapping
// advised MADV_HUGEPAGE takes one fault per 2 MiB where the kernel's THP mode
// is "always" or "madvise". A smaller medium could not hold a huge page, so
// it stays on the heap rather than costing a mapping.
const hugePage = 2 << 20

// newMedia returns a zeroed medium of size bytes: an anonymous private
// mapping advised MADV_HUGEPAGE from one huge page up, the heap below that or
// when the mapping is refused.
func newMedia(size int64) *media {
	if size < hugePage || size > math.MaxInt {
		return &media{buf: make([]byte, size)}
	}
	buf, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return &media{buf: make([]byte, size)}
	}
	// Advice only: a kernel without THP serves the mapping on small pages.
	_ = syscall.Madvise(buf, syscall.MADV_HUGEPAGE)
	m := &media{buf: buf, mapped: true}
	runtime.SetFinalizer(m, (*media).release)
	return m
}

// release unmaps a mapped medium; a heap one is left to the collector. It
// runs once: from Close, which then drops the holder, or as the finalizer of
// a holder that is already unreachable.
func (m *media) release() error {
	if !m.mapped {
		return nil
	}
	runtime.SetFinalizer(m, nil)
	buf := m.buf
	m.buf, m.mapped = nil, false
	if err := syscall.Munmap(buf); err != nil {
		return fmt.Errorf("blockdev: munmap: %w", err)
	}
	return nil
}
