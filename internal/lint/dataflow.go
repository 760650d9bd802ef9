package lint

// The forward dataflow solver the CFG analyzers share. An analyzer supplies
// a flowSpec — its lattice (join/equal/clone) and transfer functions — and
// gets back the converged state at every reachable block's entry and exit.
// May-analyses (poolcheck's held set, gocheck's outstanding semaphore slots)
// use a union join; must-analyses (gocheck's dominating WaitGroup.Add) use
// intersection.
// Analyzers report nothing during iteration: after the fixed point they
// replay each reached block once over its entry state, so a finding is
// emitted exactly once however many times the solver visited its block.

import "go/token"

// flowSpec defines one dataflow problem over a cfg.
type flowSpec[S any] struct {
	entry S         // state on entry to the function
	clone func(S) S // deep-enough copy: transfer/edge may mutate their input
	join  func(dst, src S) S
	equal func(a, b S) bool
	// transfer applies one block's statements. It must be deterministic and
	// idempotent with respect to allocation (cache any state objects it
	// creates by source position, or equal() never stabilizes).
	transfer func(b *cfgBlock, st S) S
	// edge, optionally, filters state flowing from→to: branch is the
	// successor index when from.cond is set (0 = true, 1 = false), else -1;
	// back is the loop for back edges, nil otherwise.
	edge func(from, to *cfgBlock, branch int, back *cfgLoop, st S) S
}

// flowResult holds the fixed point: states at block entry and exit, for
// reachable blocks only (an unreachable block has no entry in either map).
type flowResult[S any] struct {
	in, out map[*cfgBlock]S
}

func (r *flowResult[S]) reached(b *cfgBlock) bool {
	_, ok := r.in[b]
	return ok
}

// solveFlow iterates the spec's transfer over g to a fixed point.
func solveFlow[S any](g *cfg, spec flowSpec[S]) *flowResult[S] {
	res := &flowResult[S]{in: make(map[*cfgBlock]S), out: make(map[*cfgBlock]S)}
	res.in[g.entry] = spec.entry
	queue := []*cfgBlock{g.entry}
	queued := map[*cfgBlock]bool{g.entry: true}
	for len(queue) > 0 {
		b := queue[0]
		queue, queued[b] = queue[1:], false
		out := spec.transfer(b, spec.clone(res.in[b]))
		res.out[b] = out
		for i, succ := range b.succs {
			branch := -1
			if b.cond != nil {
				branch = i
			}
			st := spec.clone(out)
			if spec.edge != nil {
				st = spec.edge(b, succ, branch, g.backLoop(b, succ), st)
			}
			prev, seen := res.in[succ]
			if seen {
				st = spec.join(spec.clone(prev), st)
				if spec.equal(prev, st) {
					continue
				}
			}
			res.in[succ] = st
			if !queued[succ] {
				queued[succ] = true
				queue = append(queue, succ)
			}
		}
	}
	return res
}

// firstAcquirePos is a tiny helper for per-resource finding dedup: report at
// the earliest acquisition.
func firstAcquirePos(a, b token.Pos) token.Pos {
	if b != token.NoPos && (a == token.NoPos || b < a) {
		return b
	}
	return a
}
