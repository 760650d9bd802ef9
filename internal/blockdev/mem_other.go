//go:build !linux

package blockdev

// Off Linux every MemDevice medium is on the heap (mem_linux.go), and the
// collector releases it.

func newMedia(size int64) *media { return &media{buf: make([]byte, size)} }

func (m *media) release() error { return nil }
