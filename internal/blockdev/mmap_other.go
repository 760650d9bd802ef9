//go:build !linux

package blockdev

// Off Linux a FileDevice does not map its file: every request goes through
// the descriptor and no page is ever resident (mmap.go).

func (d *FileDevice) mapFile() {}

func (d *FileDevice) unmapFile() error { return nil }

func (d *FileDevice) msyncFile() error { return nil }
