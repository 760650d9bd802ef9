package obs

import "time"

// epoch anchors Mono. It carries a monotonic reading, so time.Since(epoch)
// reads only the monotonic clock — one vDSO call, where time.Now also reads
// the wall clock.
var epoch = time.Now()

// Mono is the data path's clock: monotonic nanoseconds since the package
// epoch. Device-call latencies, op latencies and the live load window are all
// stamped with it, so one reading can end one measurement and start the next.
// Mono never steps with the wall clock; stamps are comparable only within one
// process. Trace spans and flight-recorder events stay on wall time, which
// cross-node merging needs.
func Mono() int64 { return int64(time.Since(epoch)) }
