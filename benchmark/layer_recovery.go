package main

import (
	"time"

	"dcode"
	"dcode/internal/recovery"
)

// probeRecovery reports what the rebuild planner decides and what deciding
// costs: the elements a read-minimal plan reads per rebuilt stripe (exact,
// averaged over the column lost) and the time of one Optimize call, which
// Rebuild pays once per call.
func probeRecovery(res *result, g geometry, d time.Duration) error {
	code, err := dcode.New(g.n)
	if err != nil {
		return err
	}
	reads := 0
	for col := range code.Cols() {
		plan, err := recovery.Optimize(code, col)
		if err != nil {
			return err
		}
		reads += plan.Reads
	}
	col := 0
	var planErr error
	plan := measure(d, func() {
		if _, err := recovery.Optimize(code, col%code.Cols()); err != nil {
			planErr = err
		}
		col++
	})
	if planErr != nil {
		return planErr
	}
	res.set("recovery.reads_per_rebuilt_stripe", float64(reads)/float64(code.Cols()), "count")
	res.set("recovery.plan_us", us(plan), "us")
	return nil
}
