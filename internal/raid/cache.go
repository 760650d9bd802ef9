package raid

// This file wires the sharded element cache (internal/cache) into the array.
//
// Policy, in one place:
//
//   - The cache is OFF by default; WithCache(bytes) enables it. With it off,
//     every device tally is bit-identical to the uncached engine, which is
//     what the committed benchmark baseline pins.
//   - Invariant: a cached entry always equals the LOGICAL content of its
//     cell — what a read of that cell must return. For healthy columns that
//     is the device content; for failed columns it is the reconstruction
//     result, which the surviving disks guarantee. Every write path
//     therefore either writes the new logical value through (rmwStripe,
//     reconstructWrite, the degraded full-stripe path) or invalidates.
//   - Reads populate on miss (readCells), so a hot working set converges to
//     memory; degraded reads insert reconstructed elements, so repeated
//     reads of a failed column pay reconstruction once.
//   - Maintenance invalidates precisely: FailDisk and Rebuild drop the
//     affected column, Scrub and journal replay drop the stripes they
//     rewrite, and the element-wise repair fallback drops the cell it
//     remaps. These entries are usually still logically valid; dropping
//     them is the conservative choice that keeps "cached bytes can never
//     diverge from device contents" a local argument.
//   - loadStripe (whole-stripe reconstruction, Scrub, rebuild fallback)
//     bypasses the cache on the read side: its coalesced full-column reads
//     are already one device call each, and routing them through the cache
//     would let every scrub or rebuild evict the entire hot set.

import (
	"dcode/internal/cache"
	"dcode/internal/erasure"
	"dcode/internal/stripe"
)

// WithCache attaches a sharded LRU element cache with the given byte budget
// to the array. Read hits are served without device I/O, read-modify-write
// pre-reads of old data and old parity are absorbed when cached (turning the
// classic 4-I/O RMW into 2), and degraded reads memoize reconstructed
// elements. A non-positive budget leaves the cache off (the default).
func WithCache(bytes int64) Option {
	return func(a *Array) {
		if bytes > 0 {
			a.cacheBytes = bytes
		}
	}
}

// CacheEnabled reports whether the array was built with WithCache.
func (a *Array) CacheEnabled() bool { return a.cache != nil }

// cacheKey names one element: its column plus the element's device index.
func (a *Array) cacheKey(si int64, co erasure.Coord) cache.Key {
	return cache.Key{Col: co.Col, Elem: si*int64(a.code.Rows()) + int64(co.Row)}
}

// cacheGet serves one element from the cache into dst, if enabled and present.
func (a *Array) cacheGet(si int64, co erasure.Coord, dst []byte) bool {
	if a.cache == nil {
		return false
	}
	return a.cache.Get(a.cacheKey(si, co), dst)
}

// cachePut write-throughs one element's new logical content.
func (a *Array) cachePut(si int64, co erasure.Coord, src []byte) {
	if a.cache == nil {
		return
	}
	a.cache.Put(a.cacheKey(si, co), src)
}

// cacheInvalidate drops one element.
func (a *Array) cacheInvalidate(si int64, co erasure.Coord) {
	if a.cache == nil {
		return
	}
	a.cache.Invalidate(a.cacheKey(si, co))
}

// cacheInvalidateStripe drops every cell of one stripe — Scrub and journal
// replay call it for the stripes they rewrite.
func (a *Array) cacheInvalidateStripe(si int64) {
	if a.cache == nil {
		return
	}
	for r := 0; r < a.code.Rows(); r++ {
		for c := 0; c < a.code.Cols(); c++ {
			a.cache.Invalidate(a.cacheKey(si, erasure.Coord{Row: r, Col: c}))
		}
	}
}

// cacheInvalidateColumn drops every cached element of one column — FailDisk
// and Rebuild call it.
func (a *Array) cacheInvalidateColumn(col int) {
	if a.cache == nil {
		return
	}
	a.cache.InvalidateColumn(col)
}

// cachePutStripe write-throughs every cell of a freshly encoded stripe, read
// through the data overlay; the degraded full-stripe write path uses it so
// subsequent degraded reads hit.
func (a *Array) cachePutStripe(si int64, s *stripe.Stripe, data [][]byte) {
	if a.cache == nil {
		return
	}
	for r := 0; r < a.code.Rows(); r++ {
		for c := 0; c < a.code.Cols(); c++ {
			co := erasure.Coord{Row: r, Col: c}
			a.cache.Put(a.cacheKey(si, co), a.code.CellFrom(s, data, co))
		}
	}
}
