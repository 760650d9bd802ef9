package raid

import (
	"math"
	"testing"

	"dcode/internal/codes"
	"dcode/internal/ioload"
	"dcode/internal/obs"
	"dcode/internal/workload"
)

// TestLiveLFMatchesSimulator is the acceptance check for the windowed load
// tracker: replaying one workload trace against a real array must produce a
// live load-balance factor within 5% of internal/ioload's analytic count for
// the same trace.
//
// The two accountings differ only in the writes. Writes of up to MaxLen 8
// elements are the simulator's read-modify-write at 2 accesses per written
// data element plus 2 per distinct touched parity (Eq. 8's bookkeeping); the
// engine's write plan costs that much at most, less where it re-encodes a
// group instead of patching it. So the live total never exceeds the
// simulated one, and the live LF stays within 5% of the model's. A twin
// forced to patch-all is the simulator's model exactly: its per-disk counts
// must equal the simulator's, element for element.
func TestLiveLFMatchesSimulator(t *testing.T) {
	const (
		stripes = 4
		opCount = 250
	)
	for _, tc := range []struct {
		id string
		p  int
	}{
		{"dcode", 7},
		{"rdp", 7},
		{"xcode", 7},
	} {
		t.Run(tc.id, func(t *testing.T) {
			code := codes.MustNew(tc.id, tc.p)
			total := stripes * code.DataElems()
			ops, err := workload.Generate(workload.Config{
				Ops:       opCount,
				MaxLen:    8,
				MaxTimes:  3,
				DataElems: total,
				Seed:      7,
			}, workload.ReadIntensive)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ops {
				if ops[i].S+ops[i].L > total { // Generate lets L spill past the end
					ops[i].L = total - ops[i].S
				}
			}

			sim := ioload.Simulate(code, ops)
			simLF := sim.LF()
			if math.IsInf(simLF, 0) {
				t.Fatalf("simulated workload idles a disk entirely (LF=+Inf); reshape the trace")
			}

			a, _ := newArrayConc(t, tc.id, tc.p, stripes, WithConcurrency(1))
			live := replayLive(t, a, ops)
			liveLF := live.Load.LF
			t.Logf("%s: live LF=%.4f simulated LF=%.4f (live per-disk %v, sim per-disk %v)",
				tc.id, liveLF, simLF, live.Load.PerDisk, sim.PerDisk)
			if liveLF <= 0 || math.IsInf(liveLF, 0) || math.IsNaN(liveLF) {
				t.Fatalf("degenerate live LF %v", liveLF)
			}
			if rel := math.Abs(liveLF-simLF) / simLF; rel > 0.05 {
				t.Errorf("live LF %.4f vs simulated %.4f: %.1f%% apart, want ≤5%%",
					liveLF, simLF, 100*rel)
			}
			// The cumulative tallies are exact — nothing ages out of a 60s
			// window mid-test — so the totals compare directly.
			if live.Load.Total > sim.Cost() {
				t.Errorf("live engine made %d accesses, above the simulator's %d", live.Load.Total, sim.Cost())
			}

			twin, _ := newArrayConc(t, tc.id, tc.p, stripes, WithConcurrency(1))
			twin.writePlans = planPatch
			patched := replayLive(t, twin, ops)
			if len(patched.Load.PerDisk) != len(sim.PerDisk) {
				t.Fatalf("patch-all twin tracks %d disks, simulator %d", len(patched.Load.PerDisk), len(sim.PerDisk))
			}
			for d := range sim.PerDisk {
				if patched.Load.PerDisk[d] != sim.PerDisk[d] {
					t.Errorf("disk %d: patch-all twin made %d accesses, simulator counts %d",
						d, patched.Load.PerDisk[d], sim.PerDisk[d])
				}
			}
		})
	}
}

// replayLive runs an element-addressed trace against a and returns the load
// window's view of it.
func replayLive(t *testing.T, a *Array, ops []workload.Op) obs.WindowSnapshot {
	t.Helper()
	var buf []byte
	for _, op := range ops {
		off := int64(op.S) * elemSize
		n := op.L * elemSize
		if n > len(buf) {
			buf = make([]byte, n)
		}
		for r := 0; r < op.T; r++ {
			var err error
			if op.Kind == workload.Read {
				_, err = a.ReadAt(buf[:n], off)
			} else {
				_, err = a.WriteAt(pattern(n, byte(op.S)), off)
			}
			if err != nil {
				t.Fatalf("%v S=%d L=%d: %v", op.Kind, op.S, op.L, err)
			}
		}
	}
	return a.LoadWindow().Snapshot()
}

// TestLiveMixedLFOrdering is the paper's Fig. 4 ordering as a test: under the
// read-write evenly mixed profile (the paper's 2000 ops of L ≤ 20) the live
// engine must balance D-Code's disks better than X-Code's, HDP's and RDP's.
// Consecutive data elements share D-Code's horizontal parities, so a
// multi-element write touches each once; that only shows when the engine's RMW
// reads and writes a shared parity once per stripe task rather than once per
// element.
func TestLiveMixedLFOrdering(t *testing.T) {
	const (
		p       = 7
		stripes = 4
	)
	for _, seed := range []int64{1, 2, 42} {
		liveLF := func(id string) float64 {
			code := codes.MustNew(id, p)
			total := stripes * code.DataElems()
			ops, err := workload.Generate(workload.Config{
				MaxTimes:  4,
				DataElems: total,
				Seed:      seed,
			}, workload.Mixed)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ops {
				if ops[i].S+ops[i].L > total {
					ops[i].L = total - ops[i].S
				}
			}
			a, _ := newArrayConc(t, id, p, stripes, WithConcurrency(1))
			lf := replayLive(t, a, ops).Load.LF
			if lf < 1 || math.IsInf(lf, 0) || math.IsNaN(lf) {
				t.Fatalf("%s seed %d: degenerate live LF %v", id, seed, lf)
			}
			return lf
		}
		dcode := liveLF("dcode")
		for _, id := range []string{"xcode", "hdp", "rdp"} {
			if other := liveLF(id); dcode >= other {
				t.Errorf("seed %d: D-Code live LF %.4f not below %s's %.4f", seed, dcode, id, other)
			}
		}
	}
}
