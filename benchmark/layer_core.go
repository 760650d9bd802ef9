package main

import (
	"errors"

	"dcode"
)

// probeCore reports what the code construction itself fixes: the storage
// overhead, and the paper's Fig. 7 ordering as a count — the I/O cost of the
// read_degraded counted pass on D-Code over that of X-Code with the same
// prime, on the same seeded stream. Both repeat exactly.
func probeCore(res *result, e *env, g geometry, seed int64) error {
	w, _ := workloadByName("read_degraded")
	streams, err := buildStreams(g, w, seed, g.countedOps, 1)
	if err != nil {
		return err
	}
	cost := func(newCode func(int) (*dcode.Code, error)) (ioCost, rawPerUser float64, err error) {
		s, _, err := setup(e, g, w, seed, streams, hooks{newCode: newCode})
		if err != nil {
			return 0, 0, err
		}
		defer func() { err = errors.Join(err, s.close()) }()
		cnt, t := countedPass(s)
		res.tally(t, firstFailure(s.steppers))
		raw := float64(s.code.Cols()) * float64(s.colBytes())
		return cnt.ioCost(), raw / float64(s.arr.Size()), nil
	}
	dc, raw, err := cost(dcode.New)
	if err != nil {
		return err
	}
	xc, _, err := cost(dcode.NewXCode)
	if err != nil {
		return err
	}
	res.set("core.raw_bytes_per_user_byte", raw, "ratio")
	res.set("core.degraded_io_cost_vs_xcode", dc/xc, "ratio")
	return nil
}
