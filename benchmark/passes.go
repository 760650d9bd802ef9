package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// tally counts the ops a pass attempted and the ones that failed. An op
// fails when its call returns an error or what it read is not the last
// acknowledged version of every byte.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

func (t *tally) note(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// each runs fn once per stepper, concurrently when there are several
// callers, and returns when all are done.
func each(steppers []stepper, fn func(i int, st stepper)) {
	if len(steppers) == 1 {
		fn(0, steppers[0])
		return
	}
	var wg sync.WaitGroup
	for i, st := range steppers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, st)
		}()
	}
	wg.Wait()
}

// counts are the exact-repeat figures of a counted pass.
type counts struct {
	ops     int64
	perDisk []int64 // device element accesses per column during the pass
}

// ioCost is device element accesses per user op: the paper's I/O cost.
func (c counts) ioCost() float64 {
	var total int64
	for _, v := range c.perDisk {
		total += v
	}
	return float64(total) / float64(c.ops)
}

// loadLF is the paper's load-balancing factor Lmax/Lmin (Eq. 8) over the
// columns that were up when the pass began. The array's own LF reads −1 as
// soon as one column is idle, which a failed column always is, so it is
// computed here.
func (c counts) loadLF(failed []int) (float64, error) {
	var lo, hi int64 = -1, 0
	for col, v := range c.perDisk {
		if slices.Contains(failed, col) {
			continue
		}
		hi = max(hi, v)
		if lo < 0 || v < lo {
			lo = v
		}
	}
	if lo <= 0 {
		return 0, fmt.Errorf("a surviving column served no I/O in the counted pass: %v", c.perDisk)
	}
	return float64(hi) / float64(lo), nil
}

// countedPass executes a fixed number of ops from the start of the stream,
// compares every byte read, and returns the device tallies it caused. With
// one seed the result repeats exactly.
func countedPass(s *session) (counts, tally) {
	before := s.loads()
	tallies := make([]tally, len(s.steppers))
	var c counts
	for _, st := range s.steppers {
		c.ops += int64(st.counted())
	}
	each(s.steppers, func(i int, st stepper) {
		st.reset()
		for done := 0; done < st.counted(); {
			r := st.step(true)
			tallies[i].note(r.ok)
			if r.kind != kindFlush {
				done++
			}
		}
	})
	after := s.loads()
	c.perDisk = make([]int64, len(after))
	for i := range after {
		c.perDisk[i] = after[i] - before[i]
	}
	var t tally
	for _, o := range tallies {
		t.add(o)
	}
	return c, t
}

// window is what one caller did in one measuring window.
type window struct {
	bytes int64
	dur   time.Duration
	lat   []int64 // every op's latency in nanoseconds, in issue order
}

// timing is the outcome of a timed pass: per-window figures across callers.
type timing struct {
	mbps     []float64 // MiB of user data per wall-clock second
	p50, p99 []float64 // microseconds
	samples  []int     // latency samples behind each window's percentiles
}

// timedPass warms up, then measures consecutive windows. Each caller keeps
// every op's latency as a nanosecond sample in slices allocated and touched
// beforehand; nothing but the call under test runs between an op's two
// clock reads. A window ends with the first op that completes past its
// length, and its throughput is taken over the time it really spanned.
func timedPass(s *session, warm, length time.Duration) (timing, tally) {
	// A 2µs op is beyond this engine, so the samples cannot outgrow this.
	capacity := int(length/(2*time.Microsecond)) + 1024
	wins := make([][]window, len(s.steppers))
	for i := range wins {
		wins[i] = make([]window, windows)
		for k := range wins[i] {
			lat := make([]int64, capacity)
			for j := range lat {
				lat[j] = 1 // touch the pages now, not inside a window
			}
			wins[i][k].lat = lat[:0]
		}
	}
	tallies := make([]tally, len(s.steppers))
	runtime.GC()
	each(s.steppers, func(i int, st stepper) {
		st.reset()
		for start := time.Now(); time.Since(start) < warm; {
			tallies[i].note(st.step(false).ok)
		}
		for k := range wins[i] {
			w := &wins[i][k]
			start := time.Now()
			for {
				r := st.step(false)
				tallies[i].note(r.ok)
				w.bytes += int64(r.bytes)
				if r.kind != kindFlush && len(w.lat) < cap(w.lat) {
					w.lat = append(w.lat, int64(r.dur))
				}
				if w.dur = r.start.Add(r.dur).Sub(start); w.dur >= length {
					break
				}
			}
		}
	})
	var tm timing
	for k := range windows {
		var merged []int64
		mbps := 0.0
		for i := range wins {
			w := wins[i][k]
			mbps += float64(w.bytes) / (1 << 20) / w.dur.Seconds()
			merged = append(merged, w.lat...)
		}
		slices.Sort(merged)
		tm.mbps = append(tm.mbps, mbps)
		tm.p50 = append(tm.p50, us(float64(percentile(merged, 0.50))))
		tm.p99 = append(tm.p99, us(float64(percentile(merged, 0.99))))
		tm.samples = append(tm.samples, len(merged))
	}
	var t tally
	for _, o := range tallies {
		t.add(o)
	}
	return tm, t
}

// readback reads the whole volume and compares every byte with the last
// acknowledged version of its element. One op is one chunk read.
func readback(s *session) (tally, string) {
	total := s.totalElems()
	chunk := min(total, fullStripeRun*s.dataElems())
	buf := make([]byte, chunk*int64(s.g.elem))
	scratch := make([]byte, s.g.elem)
	var t tally
	firstFail := ""
	for first := int64(0); first < total; first += chunk {
		b := buf[:min(chunk, total-first)*int64(s.g.elem)]
		_, err := s.vol.ReadAt(b, first*int64(s.g.elem))
		bad := 0
		if err == nil {
			bad = s.pay.verify(b, first, true, scratch)
		}
		t.note(err == nil && bad == 0)
		if firstFail == "" && (err != nil || bad > 0) {
			firstFail = fmt.Sprintf("readback at element %d: err=%v, %d elements not at their last acknowledged version", first, err, bad)
		}
	}
	return t, firstFail
}
