//go:build !linux

package blockdev

// ReadVecAt implements Device with the portable per-buffer loop; only linux
// gets the single-syscall preadv fast path.
func (d *FileDevice) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	if err := checkRange(VecLen(bufs), off, d.size); err != nil {
		return 0, err
	}
	return readVecLoop(d, bufs, off)
}

// WriteVecAt implements Device with the portable per-buffer loop. The whole
// range is checked first, so a refused write lands no buffer.
func (d *FileDevice) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	if err := checkRange(VecLen(bufs), off, d.size); err != nil {
		return 0, err
	}
	return writeVecLoop(d, bufs, off)
}
