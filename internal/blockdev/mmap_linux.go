//go:build linux

package blockdev

import (
	"fmt"
	"math"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mapFile maps the whole file shared and read/write and sizes its residency
// flags (mmap.go). A file that cannot be mapped — empty, larger than the
// address space, or on a filesystem without mmap — leaves the device on its
// descriptor.
func (d *FileDevice) mapFile() {
	if d.size <= 0 || d.size > math.MaxInt {
		return
	}
	mem, err := syscall.Mmap(int(d.f.Fd()), 0, int(d.size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return
	}
	d.mem = mem
	d.res = make([]atomic.Bool, (d.size-1)>>pageShift+1)
}

// unmapFile releases the mapping; the device keeps working on its descriptor.
func (d *FileDevice) unmapFile() error {
	if d.mem == nil {
		return nil
	}
	err := syscall.Munmap(d.mem)
	d.mem, d.res = nil, nil
	if err != nil {
		return fmt.Errorf("blockdev: munmap: %w", err)
	}
	return nil
}

// msyncFile writes the mapping's dirty pages to the file and waits for the
// writes to finish (msync with MS_SYNC).
func (d *FileDevice) msyncFile() error {
	if d.mem == nil {
		return nil
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC, uintptr(unsafe.Pointer(&d.mem[0])),
		uintptr(len(d.mem)), syscall.MS_SYNC)
	if errno != 0 {
		return fmt.Errorf("blockdev: msync: %w", errno)
	}
	return nil
}
