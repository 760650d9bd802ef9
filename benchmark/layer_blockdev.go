package main

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dcode"
	"dcode/internal/blockdev"
)

// devShim records a dev span around every call the array makes into one
// column. The array reaches its devices only through the Device interface on
// the default path, so the shim changes what is recorded and nothing else.
// This file is the one place that knows the Device method set.
type devShim struct {
	dcode.Device
	col int
	rec *recorder
}

func (d *devShim) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := d.Device.ReadAt(p, off)
	d.rec.add(layerDev, kindRead, d.col, start, n)
	return n, err
}

func (d *devShim) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := d.Device.WriteAt(p, off)
	d.rec.add(layerDev, kindWrite, d.col, start, n)
	return n, err
}

func (d *devShim) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	start := time.Now()
	n, err := d.Device.ReadVecAt(bufs, off)
	d.rec.add(layerDev, kindRead, d.col, start, n)
	return n, err
}

func (d *devShim) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	start := time.Now()
	n, err := d.Device.WriteVecAt(bufs, off)
	d.rec.add(layerDev, kindWrite, d.col, start, n)
	return n, err
}

// blockdevMetrics derives the device layer's figures from the dev spans of a
// traced pass: time per call, bytes per call, and how unevenly device time
// falls on the columns — the load-balancing factor in time terms.
func blockdevMetrics(res *result, spans []span, accts []opAccount) {
	var durs []int64
	var bytes int64
	perCol := map[int]int64{}
	var total int64
	for _, sp := range spans {
		if sp.layer != layerDev {
			continue
		}
		d := sp.end - sp.start
		durs = append(durs, d)
		bytes += sp.bytes
		perCol[sp.col] += d
		total += d
	}
	band := medianBand(accts, notFlush)
	res.Metrics["blockdev.busy_us_per_op"] = metricValue{
		Value: meanUs(band, func(a opAccount) int64 { return a.devBusy }), Unit: "us", Samples: len(band)}
	slices.Sort(durs)
	var busiest int64
	for _, d := range perCol {
		busiest = max(busiest, d)
	}
	res.Metrics["blockdev.call_p50_us"] = metricValue{Value: us(float64(percentile(durs, 0.50))), Unit: "us", Samples: len(durs)}
	res.Metrics["blockdev.call_p99_us"] = metricValue{Value: us(float64(percentile(durs, 0.99))), Unit: "us", Samples: len(durs)}
	res.set("blockdev.bytes_per_call", float64(bytes)/float64(len(durs)), "B")
	res.set("blockdev.busiest_col_share", float64(busiest)/float64(total), "ratio")
}

func notFlush(a opAccount) bool { return a.kind != kindFlush }

// probeFileVsMem issues identical calls — one element and one column run of
// a stripe, read and written — to a FileDevice and a MemDevice and reports
// how many times longer the file takes: the price of the syscall and the page
// cache that only net_mixed pays.
func probeFileVsMem(res *result, e *env, g geometry, d time.Duration) (err error) {
	size := int64(g.n) * int64(g.elem) * g.stripes
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.workDir, "probe-filedev.img")
	file, err := blockdev.OpenFile(path, size)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, file.Close(), os.Remove(path)) }()
	mem := blockdev.NewMem(size)
	cost := func(dev blockdev.Device) (float64, error) {
		total := 0.0
		var callErr error
		for _, n := range []int{g.elem, g.n * g.elem} {
			buf := make([]byte, n)
			off := int64(0)
			next := func() int64 {
				off = (off + int64(n)) % (size - int64(n))
				return off
			}
			// One pass of writes first, so the file's pages exist before reads
			// are timed.
			total += measure(d/4, func() {
				if _, err := dev.WriteAt(buf, next()); err != nil {
					callErr = err
				}
			})
			total += measure(d/4, func() {
				if _, err := dev.ReadAt(buf, next()); err != nil {
					callErr = err
				}
			})
		}
		return total, callErr
	}
	fileNs, err := cost(file)
	if err != nil {
		return err
	}
	memNs, err := cost(mem)
	if err != nil {
		return err
	}
	res.set("blockdev.file_vs_mem_call_ratio", fileNs/memNs, "ratio")
	return nil
}
