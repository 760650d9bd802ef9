// Package iotest is a golden fixture for the iocheck analyzer.
package iotest

import (
	"bufio"
	"errors"
	"net"
	"os"
	"text/tabwriter"

	"dcode/internal/blockdev"
	"dcode/internal/blockserve"
	"dcode/internal/trace"
)

func discards(dev blockdev.Device, buf []byte) {
	dev.WriteAt(buf, 0)        // want `device I/O error from .*WriteAt is discarded`
	n, _ := dev.ReadAt(buf, 0) // want `device I/O error from .*ReadAt is assigned to the blank identifier`
	_ = n
}

// linkDiscards drops the error of the link pair the raid layer issues a
// traced run through, and of the lend it folds a bare memory column's run
// from.
func linkDiscards(dev blockdev.LinkedDevice, mem *blockdev.MemDevice, bufs [][]byte) []byte {
	dev.ReadVecAtLink(bufs, 0, trace.Link{})         // want `device I/O error from .*ReadVecAtLink is discarded`
	_, _ = dev.WriteVecAtLink(bufs, 0, trace.Link{}) // want `device I/O error from .*WriteVecAtLink is assigned to the blank identifier`
	view, _ := mem.Lend(64, 0)                       // want `device I/O error from .*Lend is assigned to the blank identifier`
	return view
}

// linkConsumes keeps the errors and drops only the byte count and the view.
func linkConsumes(dev blockdev.LinkedDevice, mem *blockdev.MemDevice, bufs [][]byte) error {
	if _, err := mem.Lend(64, 0); err != nil {
		return err
	}
	_, err := dev.ReadVecAtLink(bufs, 0, trace.Link{})
	return err
}

func consumes(dev blockdev.Device, buf []byte) error {
	if _, err := dev.WriteAt(buf, 0); err != nil {
		return err
	}
	_, err := dev.ReadAt(buf, 0)
	return err
}

func flushes(w *tabwriter.Writer, b *bufio.Writer) error {
	w.Flush()     // want `buffered-output Flush error from .*Flush is discarded`
	_ = b.Flush() // want `buffered-output Flush error from .*Flush is assigned to the blank identifier`
	return b.Flush()
}

func wireDiscards(conn net.Conn, buf []byte) {
	blockserve.WriteFrame(conn, buf, blockserve.Frame{})        // want `wire frame error from blockserve\.WriteFrame is discarded`
	_, _ = blockserve.WriteFrame(conn, buf, blockserve.Frame{}) // want `wire frame error from blockserve\.WriteFrame is assigned to the blank identifier`
	_, _, _ = blockserve.ReadFrame(conn, buf)                   // want `wire frame error from blockserve\.ReadFrame is assigned to the blank identifier`
	var hdr [blockserve.MaxHeader]byte
	var fw blockserve.Writer
	_, _, _ = blockserve.ReadHeader(conn, &hdr)  // want `wire frame error from blockserve\.ReadHeader is assigned to the blank identifier`
	fw.WriteFrame(conn, blockserve.Frame{}, buf) // want `wire frame error from blockserve\.Writer\.WriteFrame is discarded`
	conn.Write(buf)                              // want `connection write error is discarded`
	_, _ = conn.Write(buf)                       // want `connection write error is assigned to the blank identifier`
}

func wireConsumes(conn net.Conn, buf []byte) error {
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	if _, err := blockserve.WriteFrame(conn, buf, blockserve.Frame{}); err != nil {
		return err
	}
	var hdr [blockserve.MaxHeader]byte
	var fw blockserve.Writer
	if _, _, err := blockserve.ReadHeader(conn, &hdr); err != nil {
		return err
	}
	return fw.WriteFrame(conn, blockserve.Frame{}, buf)
}

func closes(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want `Close error on a file opened for writing is discarded by defer`
	g, err := os.Open(path)
	if err != nil {
		return err
	}
	defer g.Close() // read-only file: Close cannot lose writes, no finding
	_ = f
	return nil
}

// closeDropped writes a file it created and drops the final Close's error,
// where write-back failures surface.
func closeDropped(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return errors.Join(err, f.Close())
	}
	f.Close() // want `Close error on a file opened for writing is discarded`
	return nil
}
