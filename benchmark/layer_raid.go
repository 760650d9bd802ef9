package main

import "dcode"

// raidCounters are the array's own tallies the raid figures are taken from;
// a traced pass reports the difference between two readings.
type raidCounters struct {
	xorOps        int64 // element XORs, encode and decode
	rmwWrites     int64 // elements updated by read-modify-write
	stripeEncodes int64 // stripes written by re-encoding them
	degradedReads int64
	planHits      int64 // degraded plans served from the memo
}

func readRaidCounters(a *dcode.Array) raidCounters {
	s := a.Snapshot()
	return raidCounters{
		xorOps:        s.XOR.EncodeOps + s.XOR.DecodeOps,
		rmwWrites:     s.Counters.RMWWrites,
		stripeEncodes: s.Counters.FullStripeWrites,
		degradedReads: s.Counters.DegradedReads,
		planHits:      s.Counters.DegradedPlanHits,
	}
}

func (c raidCounters) minus(o raidCounters) raidCounters {
	return raidCounters{c.xorOps - o.xorOps, c.rmwWrites - o.rmwWrites, c.stripeEncodes - o.stripeEncodes,
		c.degradedReads - o.degradedReads, c.planHits - o.planHits}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// raidMetrics reports the array engine's share of a traced pass: its self
// time (the span around the array call minus the union of the device spans
// under it — planning, locking, copying, parity), how many physical device
// calls and bytes it turned a user op into, and which write and degraded
// paths it took.
func raidMetrics(res *result, accts []opAccount, c raidCounters) {
	band := medianBand(accts, notFlush)
	ops := 0
	var calls, devBytes, userBytes int64
	for _, a := range accts {
		if notFlush(a) {
			ops++
		}
		calls += int64(a.devCalls)
		devBytes += a.devBytes
		userBytes += a.userBytes
	}
	res.Metrics["raid.self_us_per_op"] = metricValue{Value: meanUs(band, opAccount.self), Unit: "us", Samples: len(band)}
	res.set("raid.dev_calls_per_op", ratio(calls, int64(ops)), "count")
	res.set("raid.dev_bytes_per_user_byte", ratio(devBytes, userBytes), "ratio")
	res.set("raid.xor_ops_per_op", ratio(c.xorOps, int64(ops)), "count")
	res.set("raid.rmw_write_share", ratio(c.rmwWrites, c.rmwWrites+c.stripeEncodes), "ratio")
	res.set("raid.degraded_plan_hit_rate", ratio(c.planHits, c.degradedReads), "ratio")
}
