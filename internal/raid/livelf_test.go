package raid

import (
	"math"
	"slices"
	"testing"

	"dcode/internal/blockdev"
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

// TestLoadMatrixPinned pins the live engine's per-disk I/O counts, the
// paper's Figs. 4–5 metric, for the comparison codes under the three paper
// workloads at p=5: 512 B elements, 16 stripes, 120 generated ops of L ≤ 20
// and T ≤ 2 at seed 42, replayed serially after one whole-volume pre-fill
// write and a metrics reset, each op's length clamped to the volume. Every
// cell's per-disk accesses, executed XOR counts, executions and bytes are
// exact, so any change to which cells a read or write touches shows here,
// whether it moves one disk's count or all of them.
func TestLoadMatrixPinned(t *testing.T) {
	const (
		p        = 5
		elem     = 512
		stripes  = 16
		seed     = 42
		maxLen   = 20
		maxTimes = 2
		opCount  = 120
	)
	want := []struct {
		code, workload string
		executions     int
		bytes          int64
		perDisk        []int64
		encodeXOR      int64
		decodeXOR      int64
	}{
		{"rdp", "Read-Only", 178, 915968, []int64{450, 449, 442, 448, 0, 0}, 0, 0},
		{"rdp", "Read-Intensive", 178, 915968, []int64{558, 537, 529, 529, 272, 430}, 990, 0},
		{"rdp", "Read-Write Evenly Mixed", 178, 915968, []int64{617, 587, 580, 590, 414, 666}, 1545, 0},
		{"hcode", "Read-Only", 178, 915968, []int64{450, 338, 341, 327, 333, 0}, 0, 0},
		{"hcode", "Read-Intensive", 178, 915968, []int64{558, 484, 512, 503, 516, 243}, 1011, 0},
		{"hcode", "Read-Write Evenly Mixed", 178, 915968, []int64{617, 573, 622, 612, 615, 360}, 1590, 0},
		{"hdp", "Read-Only", 178, 907264, []int64{443, 440, 453, 436}, 0, 0},
		{"hdp", "Read-Intensive", 178, 907264, []int64{728, 757, 779, 756}, 1215, 0},
		{"hdp", "Read-Write Evenly Mixed", 178, 907264, []int64{880, 922, 957, 919}, 1863, 0},
		{"xcode", "Read-Only", 178, 934400, []int64{370, 367, 364, 364, 360}, 0, 0},
		{"xcode", "Read-Intensive", 178, 934400, []int64{640, 608, 632, 643, 615}, 1308, 0},
		{"xcode", "Read-Write Evenly Mixed", 178, 934400, []int64{790, 737, 785, 816, 766}, 1978, 0},
		{"dcode", "Read-Only", 178, 934400, []int64{370, 367, 364, 364, 360}, 0, 0},
		{"dcode", "Read-Intensive", 178, 934400, []int64{578, 589, 592, 570, 554}, 1050, 0},
		{"dcode", "Read-Write Evenly Mixed", 178, 934400, []int64{693, 718, 723, 681, 665}, 1594, 0},
	}
	cell := 0
	for _, e := range codes.Comparison() {
		for _, prof := range workload.Profiles {
			if cell == len(want) {
				t.Fatalf("%s/%s: no pinned row (the matrix grew)", e.ID, prof.Name)
			}
			w := want[cell]
			cell++
			if w.code != e.ID || w.workload != prof.Name {
				t.Fatalf("cell %d is %s/%s, pinned row is %s/%s", cell-1, e.ID, prof.Name, w.code, w.workload)
			}
			code, err := e.New(p)
			if err != nil {
				t.Fatal(err)
			}
			devs := make([]blockdev.Device, code.Cols())
			for i := range devs {
				devs[i] = blockdev.NewMem(stripes * int64(code.Rows()) * elem)
			}
			a, err := New(code, devs, elem, stripes, WithConcurrency(1))
			if err != nil {
				t.Fatal(err)
			}
			fill := make([]byte, a.Size())
			for i := range fill {
				fill[i] = byte(uint32(i)*2654435761 + seed)
			}
			if _, err := a.WriteAt(fill, 0); err != nil {
				t.Fatal(err)
			}
			a.ResetMetrics()

			ops, err := workload.Generate(workload.Config{
				Ops: opCount, MaxLen: maxLen, MaxTimes: maxTimes,
				DataElems: stripes * code.DataElems(), Seed: seed,
			}, prof)
			if err != nil {
				t.Fatal(err)
			}
			var executions int
			var moved int64
			buf := make([]byte, (maxLen+1)*elem)
			for _, op := range ops {
				off := int64(op.S) * elem
				n := min(int64(op.L)*elem, a.Size()-off)
				for r := 0; r < op.T && n > 0; r++ {
					if op.Kind == workload.Read {
						_, err = a.ReadAt(buf[:n], off)
					} else {
						_, err = a.WriteAt(buf[:n], off)
					}
					if err != nil {
						t.Fatalf("%s/%s %v S=%d L=%d: %v", e.ID, prof.Name, op.Kind, op.S, op.L, err)
					}
					executions++
					moved += n
				}
			}

			snap := a.Snapshot()
			if executions != w.executions || moved != w.bytes {
				t.Errorf("%s/%s: %d executions moving %d bytes, pinned %d and %d",
					e.ID, prof.Name, executions, moved, w.executions, w.bytes)
			}
			if !slices.Equal(snap.Load.PerDisk, w.perDisk) {
				t.Errorf("%s/%s: per-disk accesses %v, pinned %v", e.ID, prof.Name, snap.Load.PerDisk, w.perDisk)
			}
			if snap.XOR.EncodeOps != w.encodeXOR || snap.XOR.DecodeOps != w.decodeXOR {
				t.Errorf("%s/%s: encode/decode XOR ops %d/%d, pinned %d/%d",
					e.ID, prof.Name, snap.XOR.EncodeOps, snap.XOR.DecodeOps, w.encodeXOR, w.decodeXOR)
			}
		}
	}
	if cell != len(want) {
		t.Errorf("matrix has %d cells, %d pinned", cell, len(want))
	}
}
