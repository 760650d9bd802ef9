package main

import (
	"time"

	"dcode"
)

// probeErasure times the code's four jobs on one stripe of the run's
// geometry: a full encode (what a full-stripe write pays per stripe), a
// single-element update (the small-write path), and the reconstruction of
// one and of two lost columns (degraded reads, rebuild).
func probeErasure(res *result, g geometry, d time.Duration) error {
	code, err := dcode.New(g.n)
	if err != nil {
		return err
	}
	s := code.NewStripe(g.elem)
	s.Fill(1)
	code.Encode(s)
	dataBytes := code.DataElems() * g.elem

	encode := measure(d, func() { code.Encode(s) })
	fresh := make([]byte, g.elem)
	i := 0
	update := measure(d, func() {
		co := code.DataCoord(i % code.DataElems())
		i++
		fresh[0] = byte(i)
		code.UpdateData(s, co.Row, co.Col, fresh)
	})
	var recErr error
	one := measure(d, func() {
		if err := code.Reconstruct(s, failedColumn); err != nil {
			recErr = err
		}
	})
	two := measure(d, func() {
		if err := code.Reconstruct(s, failedColumn, failedColumn+2); err != nil {
			recErr = err
		}
	})
	if recErr != nil {
		return recErr
	}
	res.set("erasure.encode_us_per_stripe", us(encode), "us")
	res.set("erasure.encode_gb_s", gbPerSec(dataBytes, encode), "GB/s")
	res.set("erasure.update_us_per_elem", us(update), "us")
	res.set("erasure.reconstruct1_us_per_stripe", us(one), "us")
	res.set("erasure.reconstruct2_us_per_stripe", us(two), "us")
	return nil
}
