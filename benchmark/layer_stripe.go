package main

import (
	"math/rand"
	"time"

	"dcode/internal/stripe"
)

// probeStripe times the XOR kernels on element-sized sources: the eight-way
// kernel wide parity groups use, the two-way tail, and copy of the same
// bytes as the memory roofline. Rates are source bytes per second.
func probeStripe(res *result, elem int, d time.Duration) {
	rng := rand.New(rand.NewSource(1))
	dst := make([]byte, elem)
	srcs := make([][]byte, 8)
	for i := range srcs {
		srcs[i] = make([]byte, elem)
		rng.Read(srcs[i])
	}
	xor8 := measure(d, func() { stripe.XORMulti(dst, srcs...) })
	xor2 := measure(d, func() { stripe.XORMulti(dst, srcs[:2]...) })
	move := measure(d, func() {
		for _, s := range srcs {
			copy(dst, s)
		}
	})
	res.set("stripe.xor8_gb_s", gbPerSec(8*elem, xor8), "GB/s")
	res.set("stripe.xor2_gb_s", gbPerSec(2*elem, xor2), "GB/s")
	res.set("stripe.xor8_vs_memmove", move/xor8, "ratio")
}
