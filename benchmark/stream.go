package main

import (
	"fmt"

	"dcode/internal/workload"
)

// op is one element-aligned read or write of the volume.
type op struct {
	write bool
	first int64 // first data element, volume-wide
	elems int   // length in elements
}

// stream is one caller's share of a workload's ops, in stream order. A pass
// that needs more ops than the stream holds wraps around.
type stream struct {
	ops     []op
	counted int // ops this caller executes in the counted pass
}

// buildStreams turns the seeded ⟨S,L,T⟩ trace into per-caller op lists. The
// program under test sees only these ops; the seed goes nowhere else. Each
// ⟨S,L,T⟩ tuple becomes T executions. With several callers the volume is cut
// into equal element ranges and an execution goes to the caller whose range
// holds S, clipped at the range's end, so callers never touch the same
// element and the per-element version table needs no lock. The counted pass
// is the first n executions of the trace, wherever they land. The traced run
// asks for one caller whatever the workload, so that at most one op is in
// flight and every span has one possible parent.
func buildStreams(g geometry, w workloadSpec, seed int64, n, callers int) ([]stream, error) {
	dataElems := int64(g.n * (g.n - 2))
	total := g.stripes * dataElems
	switch w.shape {
	case shapeFullStripe:
		if g.stripes < fullStripeRun {
			return nil, fmt.Errorf("%d stripes cannot hold a %d-stripe write", g.stripes, fullStripeRun)
		}
		var s stream
		for at := int64(0); at+fullStripeRun <= g.stripes; at += fullStripeRun {
			s.ops = append(s.ops, op{write: true, first: at * dataElems, elems: int(fullStripeRun * dataElems)})
		}
		s.counted = n
		return []stream{s}, nil
	case shapeRebuild:
		return []stream{{counted: n}}, nil
	}
	tuples, err := workload.Generate(workload.Config{
		Ops: n, MaxLen: maxLen, MaxTimes: maxTimes, DataElems: int(total), Seed: seed,
	}, w.profile)
	if err != nil {
		return nil, err
	}
	streams := make([]stream, callers)
	region := total / int64(len(streams))
	executed := 0
	for _, t := range tuples {
		c := min(int(int64(t.S)/region), len(streams)-1)
		end := region * int64(c+1)
		if c == len(streams)-1 {
			end = total
		}
		o := op{write: t.Kind == workload.Write, first: int64(t.S), elems: int(min(int64(t.L), end-int64(t.S)))}
		for range t.T {
			streams[c].ops = append(streams[c].ops, o)
			if executed < n {
				streams[c].counted++
			}
			executed++
		}
	}
	for c := range streams {
		if len(streams[c].ops) == 0 {
			return nil, fmt.Errorf("caller %d of %s got no ops from seed %d", c, w.name, seed)
		}
	}
	return streams, nil
}
