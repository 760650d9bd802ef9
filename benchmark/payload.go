package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// Versioned payloads. Every element the benchmark writes is the seed's noise
// page with a 16-byte stamp at the start of each sector: the element's
// volume-wide index, the version of this write, and a check word binding the
// two to the seed. The benchmark remembers the last acknowledged version of
// every element, so a read that returns a dropped write (old version), a
// misdirected one (wrong index), or damaged bytes (noise mismatch) fails —
// none of which a position-only pattern can see, because rewriting it
// stores the bytes that were already there.

const (
	sectorSize = 512
	stampSize  = 16
)

// payloads owns the expected contents of a volume.
type payloads struct {
	elem     int
	seed     uint64
	noise    []byte   // one element of seeded random bytes
	versions []uint32 // last acknowledged version per element
}

func newPayloads(elem int, elems int64, seed int64) *payloads {
	p := &payloads{elem: elem, seed: uint64(seed), noise: make([]byte, elem), versions: make([]uint32, elems)}
	rand.New(rand.NewSource(seed)).Read(p.noise)
	return p
}

func (p *payloads) check(idx int64, version uint32) uint32 {
	x := (uint64(idx)+1)*0x9E3779B97F4A7C15 ^ (uint64(version)+1)*0xC2B2AE3D27D4EB4F ^ p.seed
	x ^= x >> 29
	return uint32(x * 0xBF58476D1CE4E5B9 >> 32)
}

// prime fills buf, a whole number of elements, with noise; stamp then only
// has to rewrite the stamps before each write.
func (p *payloads) prime(buf []byte) {
	for off := 0; off < len(buf); off += p.elem {
		copy(buf[off:off+p.elem], p.noise)
	}
}

// stamp writes the stamps of elements first, first+1, ... at the given
// version offset above their current versions into buf (primed, one element
// per index).
func (p *payloads) stamp(buf []byte, first int64, bump uint32) {
	for e := int64(0); e*int64(p.elem) < int64(len(buf)); e++ {
		idx := first + e
		p.stampOne(buf[e*int64(p.elem):], idx, p.versions[idx]+bump)
	}
}

// ack records that the write of elements first... covering n bytes was
// acknowledged at version current+bump.
func (p *payloads) ack(first int64, n int, bump uint32) {
	for e := int64(0); e < int64(n/p.elem); e++ {
		p.versions[first+e] += bump
	}
}

// verify reports how many of the elements in buf (read from element index
// first) do not carry their last acknowledged version. With full set every
// byte is compared against the expected element built in scratch (one element
// long); otherwise only the stamps are, which is what the timed pass can
// afford between calls.
func (p *payloads) verify(buf []byte, first int64, full bool, scratch []byte) int {
	bad := 0
	for e := int64(0); e*int64(p.elem) < int64(len(buf)); e++ {
		idx := first + e
		el := buf[e*int64(p.elem) : (e+1)*int64(p.elem)]
		v := p.versions[idx]
		if full {
			copy(scratch, p.noise)
			p.stampOne(scratch, idx, v)
			if !bytes.Equal(el, scratch) {
				bad++
			}
			continue
		}
		c := p.check(idx, v)
		for s := 0; s < p.elem; s += sectorSize {
			if binary.LittleEndian.Uint64(el[s:]) != uint64(idx) ||
				binary.LittleEndian.Uint32(el[s+8:]) != v ||
				binary.LittleEndian.Uint32(el[s+12:]) != c {
				bad++
				break
			}
		}
	}
	return bad
}

func (p *payloads) stampOne(el []byte, idx int64, v uint32) {
	c := p.check(idx, v)
	for s := 0; s < p.elem; s += sectorSize {
		binary.LittleEndian.PutUint64(el[s:], uint64(idx))
		binary.LittleEndian.PutUint32(el[s+8:], v)
		binary.LittleEndian.PutUint32(el[s+12:], c)
	}
}
