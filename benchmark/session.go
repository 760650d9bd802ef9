package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"dcode"
	"dcode/internal/blockdev"
	"dcode/internal/blockserve"
)

// volume is what a caller drives: the array in process, a Remote on the wire.
type volume interface {
	io.ReaderAt
	io.WriterAt
}

// env is what the sessions of one run share.
type env struct {
	workDir string // the column files of net workloads live here
	seq     int    // numbers the per-session directories
}

// hooks let the traced run interpose its span-recording shims. The
// end-to-end run passes the zero value, so nothing stands between the array
// and its devices or between the server and the array.
type hooks struct {
	wrapDev     func(col int, d dcode.Device) dcode.Device
	wrapBackend func(b blockserve.Backend) blockserve.Backend
	newCode     func(n int) (*dcode.Code, error) // nil means dcode.New
	arrayOpts   []dcode.ArrayOption              // probes only: the end-to-end run passes none
}

// session is one freshly built, pattern-filled system under test.
type session struct {
	g        geometry
	w        workloadSpec
	pay      *payloads
	code     *dcode.Code
	mems     []*dcode.MemDevice // the columns, when they are in memory
	arr      *dcode.Array
	vol      volume // whole-volume access for fill and readback
	remotes  []*blockdev.Remote
	steppers []stepper
	closers  []func() error
}

func (s *session) dataElems() int64 { return int64(s.code.DataElems()) }
func (s *session) totalElems() int64 {
	return s.g.stripes * s.dataElems()
}
func (s *session) colBytes() int64 {
	return s.g.stripes * int64(s.code.Rows()) * int64(s.g.elem)
}

// close tears the session down in reverse order of construction.
func (s *session) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// setup builds the system a workload runs on and returns it with the time
// that took: devices, array, the fill, and — where the workload needs them —
// the failed column, the server and the dialled connections. Arrays are
// built through the root facade with no options: what a user gets by default
// is what is measured.
func setup(e *env, g geometry, w workloadSpec, seed int64, streams []stream, hk hooks) (s *session, secs float64, err error) {
	pay := newPayloads(g.elem, g.stripes*int64(g.n*(g.n-2)), seed)
	e.seq++
	dir := filepath.Join(e.workDir, fmt.Sprintf("s%d-%d", os.Getpid(), e.seq))

	start := time.Now()
	s = &session{g: g, w: w, pay: pay}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
			s = nil
		}
	}()
	newCode := dcode.New
	if hk.newCode != nil {
		newCode = hk.newCode
	}
	if s.code, err = newCode(g.n); err != nil {
		return s, 0, err
	}
	if err = s.buildArray(dir, hk); err != nil {
		return s, 0, err
	}
	s.vol = s.arr
	if w.net {
		var b blockserve.Backend = s.arr
		if hk.wrapBackend != nil {
			b = hk.wrapBackend(b)
		}
		addr, stop, err := serveLoopback(b)
		if err != nil {
			return s, 0, err
		}
		s.closers = append(s.closers, stop)
		for range streams {
			r, err := blockdev.DialRemote(addr)
			if err != nil {
				return s, 0, err
			}
			s.remotes = append(s.remotes, r)
			s.closers = append(s.closers, r.Close)
		}
		s.vol = s.remotes[0]
	}
	if err = s.fill(); err != nil {
		return s, 0, err
	}
	if w.degraded {
		if err = s.arr.FailDisk(failedColumn); err != nil {
			return s, 0, err
		}
	}
	secs = time.Since(start).Seconds()

	for i, st := range streams {
		switch {
		case w.shape == shapeRebuild:
			s.steppers = append(s.steppers, newRebuilder(s, st))
		case w.net:
			s.steppers = append(s.steppers, newCaller(s, st, s.remotes[i], s.remotes[i].Flush))
		default:
			s.steppers = append(s.steppers, newCaller(s, st, s.arr, nil))
		}
	}
	return s, secs, nil
}

// buildArray makes the columns — memory in process, files behind a server,
// as raidserve has them — and assembles the array over them.
func (s *session) buildArray(dir string, hk hooks) error {
	devs := make([]dcode.Device, s.code.Cols())
	if s.w.net {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		s.closers = append(s.closers, func() error { return os.RemoveAll(dir) })
	}
	for i := range devs {
		if s.w.net {
			d, err := dcode.OpenFileDevice(filepath.Join(dir, fmt.Sprintf("disk%d.img", i)), s.colBytes())
			if err != nil {
				return err
			}
			s.closers = append(s.closers, d.Close)
			devs[i] = d
		} else {
			m := dcode.NewMemDevice(s.colBytes())
			s.mems = append(s.mems, m)
			devs[i] = m
		}
		if hk.wrapDev != nil {
			devs[i] = hk.wrapDev(i, devs[i])
		}
	}
	var err error
	s.arr, err = dcode.NewArray(s.code, devs, s.g.elem, s.g.stripes, hk.arrayOpts...)
	return err
}

// serveLoopback starts a block server for b on a loopback port of this
// process; stop drains it and waits for Serve to return.
func serveLoopback(b blockserve.Backend) (addr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := blockserve.New(b, blockserve.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return errors.Join(srv.Shutdown(ctx), <-done)
	}
	return ln.Addr().String(), stop, nil
}

// fill writes version 0 of every element through the volume, a few whole
// stripes per call.
func (s *session) fill() error {
	total := s.totalElems()
	chunk := min(total, fullStripeRun*s.dataElems())
	buf := make([]byte, chunk*int64(s.g.elem))
	s.pay.prime(buf)
	for first := int64(0); first < total; first += chunk {
		b := buf[:min(chunk, total-first)*int64(s.g.elem)]
		s.pay.stamp(b, first, 0)
		if _, err := s.vol.WriteAt(b, first*int64(s.g.elem)); err != nil {
			return fmt.Errorf("fill at element %d: %w", first, err)
		}
	}
	return nil
}

// loads returns the per-column device element-access tallies.
func (s *session) loads() []int64 { return s.arr.Snapshot().Load.PerDisk }
