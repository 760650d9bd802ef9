//go:build linux

package blockdev

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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
	if mapped.add(size) {
		runtime.GC()
	}
	return m
}

// mapped paces the collector for mapped media. Their bytes are outside the
// Go heap, so a program that drops devices without Close and allocates
// little else would grow its mappings until something else collected and
// ran their finalizers. Like GOGC for the heap, a new mapping forces a
// collection when the bytes still mapped outgrow twice what was mapped after
// the last one (and the floor minMappedGoal): goal is set to twice the
// mapped bytes at each forced collection and falls with every release, so it
// follows the bytes that survive it.
var mapped pacer

type pacer struct {
	sync.Mutex
	live int64 // bytes mapped and not yet released
	goal int64 // live above this forces a collection; minMappedGoal when lower
}

// minMappedGoal is the mapped bytes below which no collection is forced,
// the counterpart of the heap's minimum goal.
const minMappedGoal = 64 << 20

// add accounts size newly mapped bytes, and reports whether the caller
// should collect; a collection is due when live outgrows the goal, which
// then doubles from there.
func (p *pacer) add(size int64) bool {
	p.Lock()
	defer p.Unlock()
	p.live += size
	if p.live <= max(p.goal, minMappedGoal) {
		return false
	}
	p.goal = 2 * p.live
	return true
}

// sub accounts size released bytes; the goal follows them down.
func (p *pacer) sub(size int64) {
	p.Lock()
	p.live -= size
	p.goal = min(p.goal, 2*p.live)
	p.Unlock()
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
	mapped.sub(int64(len(buf)))
	if err := syscall.Munmap(buf); err != nil {
		return fmt.Errorf("blockdev: munmap: %w", err)
	}
	return nil
}
