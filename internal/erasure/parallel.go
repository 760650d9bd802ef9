package erasure

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dcode/internal/stripe"
)

// minParallelBytes is the element size below which the goroutine fan-out
// costs more than it saves.
const minParallelBytes = 1024

// EncodeParallel computes every parity of the stripe like Encode, fanned out
// across workers. workers ≤ 0 uses GOMAXPROCS; small elements fall back to
// the serial path.
//
// For codes whose dependency order proves every group independent (no group
// reads another group's parity — see FlatParity) the unit of parallelism is
// the whole parity group: each worker runs the multi-source kernel over
// complete elements, which touches every cache line once. Codes with
// parity-on-parity chains (RDP, HDP) cannot reorder groups, so they fall
// back to splitting the element byte range — XOR is independent per byte, so
// worker w encodes bytes [lo_w, hi_w) of every element in dependency order.
func (c *Code) EncodeParallel(s *stripe.Stripe, workers int) {
	c.checkStripe(s)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := s.ElemSize()
	if workers == 1 || size < minParallelBytes {
		c.Encode(s)
		return
	}
	if c.flatParity {
		c.encodeGroupsParallel(s, workers)
		return
	}
	if workers > size/128 {
		// At most one worker per 128-byte chunk, but never fewer than one:
		// a zero clamp would make the fan-out loop spawn nothing and return
		// with the parity cells untouched.
		workers = max(1, size/128)
	}
	if workers == 1 {
		c.Encode(s)
		return
	}
	// Chunk boundaries aligned to 64 bytes — a cache line, and the block the
	// vectorized XOR loop consumes — so no two workers write the same line
	// and every chunk but the last is whole vector blocks.
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		b := size * w / workers
		b &^= 63
		bounds[w] = b
	}
	bounds[workers] = size

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			c.encodeRange(s, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	// Same element-XOR volume as the serial path; tallied once here rather
	// than per worker so the counters stay comparable across paths.
	var ops int64
	for _, g := range c.groups {
		ops += int64(len(g.Members) - 1)
	}
	c.xor.addEncode(ops, ops*int64(size))
}

// encodeGroupsParallel encodes whole parity groups concurrently: workers pull
// group indices from a shared atomic cursor. Valid only for flatParity codes,
// where every group writes its own parity cell and reads only data cells, so
// no inter-group ordering exists. The XOR volume matches the serial path and
// is tallied once at the end so counters stay identical across paths.
func (c *Code) encodeGroupsParallel(s *stripe.Stripe, workers int) {
	if workers > len(c.groups) {
		workers = len(c.groups)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(c.groups) {
					return
				}
				c.encodeGroupInto(s, gi)
			}
		}()
	}
	wg.Wait()
	var ops int64
	for _, g := range c.groups {
		ops += int64(len(g.Members) - 1)
	}
	c.xor.addEncode(ops, ops*int64(s.ElemSize()))
}

// encodeRange runs the dependency-ordered encode restricted to the byte
// sub-range [lo, hi) of every element.
func (c *Code) encodeRange(s *stripe.Stripe, lo, hi int) {
	for _, gi := range c.encodeOrder {
		g := &c.groups[gi]
		dst := s.Elem(g.Parity.Row, g.Parity.Col)[lo:hi]
		first := g.Members[0]
		copy(dst, s.Elem(first.Row, first.Col)[lo:hi])
		for _, m := range g.Members[1:] {
			stripe.XOR(dst, s.Elem(m.Row, m.Col)[lo:hi])
		}
	}
}
