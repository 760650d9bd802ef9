package main

import (
	"bytes"
	"fmt"
	"time"
)

type opKind uint8

const (
	kindRead opKind = iota
	kindWrite
	kindFlush
	kindRebuild
)

func (k opKind) String() string {
	return [...]string{"read", "write", "flush", "rebuild"}[k]
}

// stepResult is one call into the system under test. Only the call itself
// lies between start and start+dur: payloads are stamped before it and
// verified after it.
type stepResult struct {
	kind  opKind
	bytes int // user bytes moved
	start time.Time
	dur   time.Duration
	ok    bool // the call returned no error and what it read verified
}

// stepper issues a workload's ops one at a time, closed loop.
type stepper interface {
	// reset rewinds to the first op of the stream.
	reset()
	// step executes the next op. With full set, reads are compared byte for
	// byte; otherwise only their stamps are.
	step(full bool) stepResult
	// counted is how many ops (FLUSHes aside) the counted pass takes.
	counted() int
	// failure describes the first op that failed, for the report.
	failure() string
}

// caller replays a stream of reads and writes against a volume.
type caller struct {
	s          *session
	st         stream
	dev        volume
	flush      func() error // non-nil on the wire
	next       int          // stream cursor
	sinceFlush int
	buf        []byte // op buffer, primed with noise so a write only restamps
	scratch    []byte
	firstFail  string
}

func newCaller(s *session, st stream, dev volume, flush func() error) *caller {
	longest := 0
	for _, o := range st.ops {
		longest = max(longest, o.elems)
	}
	c := &caller{s: s, st: st, dev: dev, flush: flush,
		buf: make([]byte, longest*s.g.elem), scratch: make([]byte, s.g.elem)}
	s.pay.prime(c.buf)
	return c
}

func (c *caller) reset()          { c.next, c.sinceFlush = 0, 0 }
func (c *caller) counted() int    { return c.st.counted }
func (c *caller) failure() string { return c.firstFail }

func (c *caller) fail(format string, args ...any) {
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf(format, args...)
	}
}

func (c *caller) step(full bool) stepResult {
	if c.flush != nil && c.sinceFlush == flushEvery {
		c.sinceFlush = 0
		start := time.Now()
		err := c.flush()
		r := stepResult{kind: kindFlush, start: start, dur: time.Since(start), ok: err == nil}
		if err != nil {
			c.fail("flush: %v", err)
		}
		return r
	}
	o := c.st.ops[c.next%len(c.st.ops)]
	c.next++
	c.sinceFlush++
	b := c.buf[:o.elems*c.s.g.elem]
	off := o.first * int64(c.s.g.elem)
	if o.write {
		c.s.pay.stamp(b, o.first, 1)
		start := time.Now()
		_, err := c.dev.WriteAt(b, off)
		r := stepResult{kind: kindWrite, bytes: len(b), start: start, dur: time.Since(start), ok: err == nil}
		if err != nil {
			c.fail("write of %d elements at %d: %v", o.elems, o.first, err)
			return r
		}
		c.s.pay.ack(o.first, len(b), 1)
		return r
	}
	start := time.Now()
	_, err := c.dev.ReadAt(b, off)
	r := stepResult{kind: kindRead, bytes: len(b), start: start, dur: time.Since(start), ok: err == nil}
	if err != nil {
		c.fail("read of %d elements at %d: %v", o.elems, o.first, err)
	} else if bad := c.s.pay.verify(b, o.first, full, c.scratch); bad > 0 {
		r.ok = false
		c.fail("read of %d elements at %d: %d elements are not at their last acknowledged version", o.elems, o.first, bad)
		// The buffer doubles as the next write's payload: a good read leaves
		// the same noise in it and stamps the next write replaces, a bad one
		// must not leak into what is written next.
		c.s.pay.prime(c.buf)
	}
	return r
}

// rebuilder fails, replaces and rebuilds each column in turn. One op is one
// Rebuild call; its bytes are the column it restores.
type rebuilder struct {
	s             *session
	n             int
	next          int
	before, after []byte // the column ahead of the failure and after the rebuild
	firstFail     string
}

func newRebuilder(s *session, st stream) *rebuilder {
	return &rebuilder{s: s, n: st.counted}
}

func (r *rebuilder) reset()          { r.next = 0 }
func (r *rebuilder) counted() int    { return r.n }
func (r *rebuilder) failure() string { return r.firstFail }

func (r *rebuilder) step(full bool) stepResult {
	col := r.next % r.s.code.Cols()
	r.next++
	mem := r.s.mems[col]
	res := stepResult{kind: kindRebuild, bytes: int(r.s.colBytes())}
	if full {
		if r.before == nil {
			r.before, r.after = make([]byte, r.s.colBytes()), make([]byte, r.s.colBytes())
		}
		if _, err := mem.ReadAt(r.before, 0); err != nil {
			return r.failed(res, col, err)
		}
	}
	if err := r.s.arr.FailDisk(col); err != nil {
		return r.failed(res, col, err)
	}
	mem.Replace()
	res.start = time.Now()
	err := r.s.arr.Rebuild(col)
	res.dur = time.Since(res.start)
	if err != nil {
		return r.failed(res, col, err)
	}
	res.ok = true
	if full {
		if _, err := mem.ReadAt(r.after, 0); err != nil {
			return r.failed(res, col, err)
		}
		if !bytes.Equal(r.before, r.after) {
			return r.failed(res, col, fmt.Errorf("rebuilt column differs from the one that failed"))
		}
	}
	return res
}

func (r *rebuilder) failed(res stepResult, col int, err error) stepResult {
	res.ok = false
	if r.firstFail == "" {
		r.firstFail = fmt.Sprintf("rebuild of column %d: %v", col, err)
	}
	return res
}
