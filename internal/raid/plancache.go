package raid

// Degraded-plan memoization. erasure.Code.PlanDegraded is a pure function of
// (failed column, wanted cell set) — it only consults the code's static group
// structure — yet the engine recomputed it on every degraded fetch and every
// bad-sector repair, putting greedy set-cover work (maps, sorts, candidate
// scans) on the degraded-read hot path. The memo caches plans per Array
// keyed by the failure signature: the failed column plus a bitmask of the
// wanted cells. Memoized plans are shared across goroutines and must never
// be mutated — callers copy plan.Fetch before handing it to anything that
// sorts (see readStripeRanges).
//
// FailDisk and Rebuild clear the memo. Plans do not actually depend on the
// array's failure state (the key pins the failed column), so this is
// hygiene — it bounds memory across failure epochs — not a correctness
// requirement.

import (
	"sync"

	"dcode/internal/erasure"
)

const (
	// planMemoMaxCells bounds the geometries the memo can sign: rows×cols
	// must fit the key's bitmask. Larger codes plan directly.
	planMemoMaxCells = 512
	// planMemoMaxEntries bounds the memo; on overflow it is cleared
	// wholesale (degraded access patterns repeat, so it refills instantly).
	// Sized above the key space of the paper's read stream on the default
	// geometry — contiguous runs of 1–20 elements crossing the failed column
	// make about 600 distinct wanted-masks — so that stream never trips the
	// clear; the plans of a full memo stay under 1 MiB.
	planMemoMaxEntries = 1024
)

// planKey is the failure signature: the failed column and the wanted set as
// a bitmask over row*cols+col cell indices. It is comparable, so lookups
// stay allocation-free.
type planKey struct {
	failed int
	mask   [planMemoMaxCells / 64]uint64
}

type planMemo struct {
	mu    sync.Mutex
	plans map[planKey]*erasure.DegradedPlan
}

// planDegraded returns the (possibly memoized) degraded plan for reading the
// wanted cells with one column failed. The returned plan is shared: callers
// must treat it as read-only.
func (a *Array) planDegraded(failed int, wanted []erasure.Coord) (*erasure.DegradedPlan, error) {
	cols := a.code.Cols()
	if a.planMemoOff || a.code.Rows()*cols > planMemoMaxCells {
		p, err := a.code.PlanDegraded(failed, wanted, nil)
		if err != nil {
			return nil, err
		}
		return &p, nil
	}
	k := planKey{failed: failed}
	for _, co := range wanted {
		idx := co.Row*cols + co.Col
		k.mask[idx>>6] |= 1 << (idx & 63)
	}
	a.plans.mu.Lock()
	if p, ok := a.plans.plans[k]; ok {
		a.plans.mu.Unlock()
		a.m.degradedPlanHits.Inc()
		return p, nil
	}
	a.plans.mu.Unlock()
	p, err := a.code.PlanDegraded(failed, wanted, nil)
	if err != nil {
		return nil, err
	}
	a.plans.mu.Lock()
	if a.plans.plans == nil || len(a.plans.plans) >= planMemoMaxEntries {
		a.plans.plans = make(map[planKey]*erasure.DegradedPlan)
	}
	a.plans.plans[k] = &p
	a.plans.mu.Unlock()
	return &p, nil
}

// invalidatePlans drops every memoized plan.
func (a *Array) invalidatePlans() {
	a.plans.mu.Lock()
	a.plans.plans = nil
	a.plans.mu.Unlock()
}
