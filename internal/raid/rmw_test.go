package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/erasure"
	"dcode/internal/trace"
)

// TestRMWCostIs2wPlus2P pins the write accounting against the paper's model.
// Forced onto patch-all, a w-element write touching P distinct parities costs
// exactly 2w + 2P tallied element accesses — per column, one read and one
// write for each written data cell and each touched parity cell, however
// many written elements share that parity. The planner's own choice reads
// what the reference planner below says, per column, and costs the pinned
// total, never more than 2w + 2P: the first D-Code case writes a whole
// horizontal group, which it re-encodes instead of patching, for 21 accesses
// instead of 22.
func TestRMWCostIs2wPlus2P(t *testing.T) {
	for _, tc := range []struct {
		id           string
		off, n       int // byte range within stripe 0
		wantW, wantP int // wantP -1: whatever the code's group sets say
		wantCost     int // the planner's accesses
	}{
		// Five consecutive elements from a group boundary of D-Code p=7 share
		// one horizontal parity and have one deployment parity each.
		{id: "dcode", off: 0, n: 5 * elemSize, wantW: 5, wantP: 6, wantCost: 21},
		// The same five elements entered mid-element: partial head and tail,
		// one more element touched.
		{id: "dcode", off: elemSize / 2, n: 5 * elemSize, wantW: 6, wantP: -1, wantCost: 27},
		{id: "dcode", off: 3 * elemSize, n: 8 * elemSize, wantW: 8, wantP: -1, wantCost: 35},
		{id: "dcode", off: 7*elemSize + 3, n: 10, wantW: 1, wantP: 2, wantCost: 6},
		{id: "rdp", off: 2 * elemSize, n: 6 * elemSize, wantW: 6, wantP: -1, wantCost: 28},
		{id: "xcode", off: elemSize, n: 7 * elemSize, wantW: 7, wantP: -1, wantCost: 38},
		{id: "hdp", off: 0, n: 4 * elemSize, wantW: 4, wantP: -1, wantCost: 26},
	} {
		t.Run(fmt.Sprintf("%s/%d+%d", tc.id, tc.off, tc.n), func(t *testing.T) {
			for _, plans := range []writePlan{planPatch, planAuto} {
				a, _ := newArrayConc(t, tc.id, 7, 2, WithConcurrency(1))
				if _, err := a.WriteAt(pattern(int(a.Size()), 1), 0); err != nil {
					t.Fatal(err)
				}
				a.writePlans = plans
				code := a.Code()
				ranges, err := a.splitBytes(int64(tc.off), tc.n, nil)
				if err != nil {
					t.Fatal(err)
				}
				var coords []erasure.Coord
				for _, er := range ranges {
					if er.stripeIdx != 0 {
						t.Fatalf("case leaves stripe 0: %+v", er)
					}
					coords = append(coords, er.coord)
				}
				touched := code.GroupsTouchedBy(coords)
				w, p := len(coords), len(touched)
				if w != tc.wantW || (tc.wantP >= 0 && p != tc.wantP) {
					t.Fatalf("case geometry: w=%d P=%d, want w=%d P=%d", w, p, tc.wantW, tc.wantP)
				}
				wantWrites := make([]int64, code.Cols())
				for _, co := range coords {
					wantWrites[co.Col]++
				}
				for _, gi := range touched {
					wantWrites[code.Groups()[gi].Parity.Col]++
				}
				wantReads := wantWrites
				if plans == 0 {
					wantReads = make([]int64, code.Cols())
					for _, co := range refPlanReads(code, ranges, elemSize) {
						wantReads[co.Col]++
					}
				}

				a.ResetMetrics()
				st0 := a.Stats()
				if _, err := a.WriteAt(pattern(tc.n, 9), int64(tc.off)); err != nil {
					t.Fatal(err)
				}
				st1 := a.Stats()
				if plans == planPatch && (st1.RMWWrites != st0.RMWWrites+int64(w) || st1.FullStripeWrites != st0.FullStripeWrites) {
					t.Fatalf("patch-all write not counted as RMW for %d elements: %+v -> %+v", w, st0, st1)
				}
				var total int64
				for c, dev := range a.columns {
					r, wr := dev.m.Reads.Load(), dev.m.Writes.Load()
					if r != wantReads[c] || wr != wantWrites[c] {
						t.Errorf("plans %b column %d: %d reads + %d writes, want %d + %d", plans, c, r, wr, wantReads[c], wantWrites[c])
					}
					total += r + wr
				}
				want := int64(2*w + 2*p)
				if plans == 0 {
					if total > want {
						t.Errorf("planned write cost %d element accesses, above 2w+2P = %d", total, want)
					}
					want = int64(tc.wantCost)
				}
				if total != want {
					t.Errorf("plans %b: write cost %d element accesses, want %d (2w+2P = 2·%d+2·%d)", plans, total, want, w, p)
				}
				if fixed, err := a.Scrub(); err != nil || fixed != 0 {
					t.Fatalf("parity inconsistent after the write: fixed=%d err=%v", fixed, err)
				}
			}
		})
	}
}

// refPlanReads is the write plan's read set computed the long way, as an
// oracle for planWrite: every touched group is patched (its written members
// and its parity) or re-encoded (its unwritten members, and any parity member
// the write leaves untouched); partially written cells are read whatever
// happens to their groups. It prices the mixed plan (re-encode the groups the
// write covers whole, flat codes only), patch-all and re-encode-all in that
// order and returns the first cheapest read set — so it also checks that
// patch-all, which planWrite never prices, never beats the mixed plan.
func refPlanReads(code *erasure.Code, ranges []elemRange, elemSize int) []erasure.Coord {
	written := map[erasure.Coord]bool{}
	partial := map[erasure.Coord]bool{}
	var coords []erasure.Coord
	for _, er := range ranges {
		if !written[er.coord] {
			coords = append(coords, er.coord)
		}
		written[er.coord] = true
		if er.length != elemSize {
			partial[er.coord] = true
		}
	}
	touched := code.GroupsTouchedBy(coords)
	isTouched := map[int]bool{}
	for _, gi := range touched {
		isTouched[gi] = true
	}
	readsFor := func(encode func(gi int) bool) []erasure.Coord {
		set := map[erasure.Coord]bool{}
		for co := range partial {
			set[co] = true
		}
		for _, gi := range touched {
			g := code.Groups()[gi]
			if !encode(gi) {
				set[g.Parity] = true
				for _, co := range coords {
					if slices.Contains(code.UpdateGroups(co.Row, co.Col), gi) {
						set[co] = true
					}
				}
				continue
			}
			for _, m := range g.Members {
				if pg := code.ParityGroup(m.Row, m.Col); pg >= 0 {
					if !isTouched[pg] {
						set[m] = true
					}
				} else if !written[m] {
					set[m] = true
				}
			}
		}
		out := make([]erasure.Coord, 0, len(set))
		for co := range set {
			out = append(out, co)
		}
		return out
	}
	var plans []func(int) bool
	if code.FlatParity() {
		plans = append(plans, func(gi int) bool {
			for _, m := range code.Groups()[gi].Members {
				if !written[m] {
					return false
				}
			}
			return true
		})
	}
	plans = append(plans, func(int) bool { return false }, func(int) bool { return true })
	var best []erasure.Coord
	for i, plan := range plans {
		if reads := readsFor(plan); i == 0 || len(reads) < len(best) {
			best = reads
		}
	}
	return best
}

// rmwSeg is one contiguous piece of a stripe write: bytes data at volume
// offset off.
type rmwSeg struct {
	off  int64
	data []byte
}

// stripeDataBytes is the size of one stripe's data region.
func (a *Array) stripeDataBytes() int64 {
	return int64(a.code.DataElems()) * int64(a.elemSize)
}

// splitSegs lays segs out in one buffer, with their element ranges rebased
// onto each segment's position in it, so a test can hand one
// stripe task several disjoint ranges, including two inside one element.
func splitSegs(t *testing.T, a *Array, segs []rmwSeg) ([]elemRange, []byte) {
	t.Helper()
	var ranges []elemRange
	var buf []byte
	for _, sg := range segs {
		mark := len(ranges)
		var err error
		if ranges, err = a.splitBytes(sg.off, len(sg.data), ranges); err != nil {
			t.Fatal(err)
		}
		for i := mark; i < len(ranges); i++ {
			ranges[i].bufOff += len(buf)
		}
		buf = append(buf, sg.data...)
	}
	return ranges, buf
}

// writeSegs applies segs through the regular stripe-task entry, the write
// planner choosing among the plans the array allows.
func writeSegs(t *testing.T, a *Array, segs []rmwSeg) {
	t.Helper()
	ranges, buf := splitSegs(t, a, segs)
	for _, r := range stripeRuns(ranges, nil) {
		if err := a.writeStripeRun(r, ranges, buf, trace.Link{}); err != nil {
			t.Fatal(err)
		}
	}
}

func devicesEqual(t *testing.T, x, y []*blockdev.MemDevice) {
	t.Helper()
	for c := range x {
		bx := make([]byte, x[c].Size())
		by := make([]byte, y[c].Size())
		if _, err := x[c].ReadAt(bx, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := y[c].ReadAt(by, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bx, by) {
			t.Fatalf("column %d differs between the two arrays", c)
		}
	}
}

// checkSurvivesAnyTwo asserts the array's post-conditions: parity consistent,
// volume equal to model, and still equal with any two columns down.
func checkSurvivesAnyTwo(t *testing.T, a *Array, model []byte) {
	t.Helper()
	if fixed, err := a.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("parity inconsistent: fixed=%d err=%v", fixed, err)
	}
	got := make([]byte, len(model))
	readAll := func(what string) {
		t.Helper()
		clear(got)
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("%s: volume differs from model", what)
		}
	}
	readAll("healthy")
	cols := a.Code().Cols()
	for i := 0; i < cols; i++ {
		for j := i + 1; j < cols; j++ {
			if err := a.FailDisk(i); err != nil {
				t.Fatal(err)
			}
			if err := a.FailDisk(j); err != nil {
				t.Fatal(err)
			}
			readAll(fmt.Sprintf("columns %d,%d down", i, j))
			if err := a.Rebuild(i); err != nil {
				t.Fatal(err)
			}
			if err := a.Rebuild(j); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// rmwRoutes are the array configurations the stripe-level RMW must behave
// identically under: its gather and commit run inline or fanned out.
var rmwRoutes = []struct {
	name string
	opts []Option
}{
	{"serial", []Option{WithConcurrency(1)}},
	{"fanout", []Option{WithConcurrency(4)}},
}

// TestRMWMatchesReconstructWriteTwin drives one seeded stream of small writes
// through an array pinned to patch-all (the stripe-level RMW), a twin pinned
// to re-encode-all (a reconstruct-write of the touched groups) and a third
// array left to the planner, which mixes the two per group. Patching P
// parities from old ⊕ new must leave every column byte-identical to
// re-encoding them from the data, and so must any mix of the two.
func TestRMWMatchesReconstructWriteTwin(t *testing.T) {
	for _, tc := range rmwRoutes {
		t.Run(tc.name, func(t *testing.T) {
			const stripes = 3
			a, amems := newArrayConc(t, "dcode", 7, stripes, tc.opts...)
			a.writePlans = planPatch
			twin, tmems := newArrayConc(t, "dcode", 7, stripes, WithConcurrency(1))
			twin.writePlans = planEncode
			mixed, mmems := newArrayConc(t, "dcode", 7, stripes, tc.opts...)
			model := pattern(int(a.Size()), 5)
			for _, arr := range []*Array{a, twin, mixed} {
				if _, err := arr.WriteAt(model, 0); err != nil {
					t.Fatal(err)
				}
			}
			sdb := int(a.stripeDataBytes())
			apply := func(segs ...rmwSeg) {
				t.Helper()
				st0, tw0 := a.Stats(), twin.Stats()
				writeSegs(t, a, segs)
				if st1 := a.Stats(); st1.RMWWrites == st0.RMWWrites || st1.FullStripeWrites != st0.FullStripeWrites {
					t.Fatalf("write left the RMW path: %+v -> %+v", st0, st1)
				}
				writeSegs(t, twin, segs)
				if tw1 := twin.Stats(); tw1.RMWWrites != tw0.RMWWrites || tw1.FullStripeWrites == tw0.FullStripeWrites {
					t.Fatalf("twin write patched a parity: %+v -> %+v", tw0, tw1)
				}
				writeSegs(t, mixed, segs)
				for _, sg := range segs {
					copy(model[sg.off:], sg.data)
				}
			}

			rng := rand.New(rand.NewSource(11))
			noise := func(n int) []byte {
				b := make([]byte, n)
				rng.Read(b)
				return b
			}
			// Partial first and last element around whole ones.
			apply(rmwSeg{off: elemSize/2 + 1, data: noise(4*elemSize + 7)})
			// A range crossing the stripe boundary: two stripe tasks.
			apply(rmwSeg{off: int64(sdb - 2*elemSize - 5), data: noise(5 * elemSize)})
			// Two disjoint ranges inside one element, then a third in its
			// neighbour: several ranges in one stripe task.
			base := int64(sdb + 9*elemSize)
			apply(
				rmwSeg{off: base + 40, data: noise(10)},
				rmwSeg{off: base + 3, data: noise(20)},
				rmwSeg{off: base + elemSize + 8, data: noise(elemSize)},
			)
			// A whole horizontal group: the planner re-encodes it.
			apply(rmwSeg{off: int64(sdb + 5*elemSize), data: noise(5 * elemSize)})
			// Seeded stream of 1..8-element writes at arbitrary byte offsets,
			// then of aligned 1..20-element ones.
			for i := 0; i < 200; i++ {
				n := 1 + rng.Intn(8*elemSize)
				off := rng.Intn(len(model) - n)
				apply(rmwSeg{off: int64(off), data: noise(n)})
			}
			for i := 0; i < 100; i++ {
				n := (1 + rng.Intn(20)) * elemSize
				off := rng.Intn((len(model)-n)/elemSize+1) * elemSize
				apply(rmwSeg{off: int64(off), data: noise(n)})
			}

			devicesEqual(t, amems, tmems)
			devicesEqual(t, amems, mmems)
			checkSurvivesAnyTwo(t, a, model)
			checkSurvivesAnyTwo(t, mixed, model)
		})
	}
}

// flakyDev is a MemDevice whose reads or writes can be switched to fail, so a
// test can break a column between the gather and the commit of one write.
type flakyDev struct {
	*blockdev.MemDevice
	failReads, failWrites atomic.Bool
}

func (d *flakyDev) ReadAt(p []byte, off int64) (int, error) {
	if d.failReads.Load() {
		return 0, blockdev.ErrFailed
	}
	return d.MemDevice.ReadAt(p, off)
}

func (d *flakyDev) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	if d.failReads.Load() {
		return 0, blockdev.ErrFailed
	}
	return d.MemDevice.ReadVecAt(bufs, off)
}

func (d *flakyDev) WriteAt(p []byte, off int64) (int, error) {
	if d.failWrites.Load() {
		return 0, blockdev.ErrFailed
	}
	return d.MemDevice.WriteAt(p, off)
}

func (d *flakyDev) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	if d.failWrites.Load() {
		return 0, blockdev.ErrFailed
	}
	return d.MemDevice.WriteVecAt(bufs, off)
}

// TestRMWDeviceFailures breaks a column at each phase of a stripe-level RMW.
// Failing the gather must abandon RMW before anything is mutated and redo the
// stripe degraded; failing the commit must skip the dead column best-effort
// and leave the surviving cells mutually consistent. Either way the write
// succeeds, the column is marked, and after a rebuild the array is whole.
func TestRMWDeviceFailures(t *testing.T) {
	for _, route := range rmwRoutes {
		for _, phase := range []string{"gather", "commit"} {
			// The write covers elements 2..5 of stripe 1; break, in turn, a
			// column holding written data and one holding only a touched
			// parity.
			for _, victim := range []string{"data", "parity"} {
				t.Run(route.name+"/"+phase+"/"+victim, func(t *testing.T) {
					const stripes = 3
					code := codes.MustNew("dcode", 7)
					devs := make([]blockdev.Device, code.Cols())
					flaky := make([]*flakyDev, code.Cols())
					for i := range devs {
						flaky[i] = &flakyDev{MemDevice: blockdev.NewMem(stripes * int64(code.Rows()) * elemSize)}
						devs[i] = flaky[i]
					}
					a, err := New(code, devs, elemSize, stripes, route.opts...)
					if err != nil {
						t.Fatal(err)
					}
					model := pattern(int(a.Size()), 21)
					if _, err := a.WriteAt(model, 0); err != nil {
						t.Fatal(err)
					}

					off := a.stripeDataBytes() + 2*elemSize + 5
					patch := pattern(3*elemSize+20, 77)
					ranges, _ := a.splitBytes(off, len(patch), nil)
					isData := make(map[int]bool)
					var coords []erasure.Coord
					for _, er := range ranges {
						isData[er.coord.Col] = true
						coords = append(coords, er.coord)
					}
					col := -1
					if victim == "data" {
						col = coords[1].Col
					} else {
						for _, gi := range code.GroupsTouchedBy(coords) {
							if pc := code.Groups()[gi].Parity.Col; !isData[pc] {
								col = pc
								break
							}
						}
					}
					if col < 0 {
						t.Fatal("no parity-only column touched; reshape the write")
					}

					if phase == "gather" {
						flaky[col].failReads.Store(true)
					} else {
						flaky[col].failWrites.Store(true)
					}
					st0 := a.Stats()
					if _, err := a.WriteAt(patch, off); err != nil {
						t.Fatalf("write with column %d failing mid-%s: %v", col, phase, err)
					}
					copy(model[off:], patch)
					st1 := a.Stats()
					if phase == "gather" {
						if st1.RMWWrites != st0.RMWWrites || st1.FullStripeWrites != st0.FullStripeWrites+1 {
							t.Fatalf("gather failure did not fall back to the degraded path: %+v -> %+v", st0, st1)
						}
					} else if st1.RMWWrites != st0.RMWWrites+int64(len(coords)) || st1.FullStripeWrites != st0.FullStripeWrites {
						t.Fatalf("commit failure was not absorbed by RMW: %+v -> %+v", st0, st1)
					}
					if failed := a.FailedDisks(); len(failed) != 1 || failed[0] != col {
						t.Fatalf("FailedDisks = %v, want [%d]", failed, col)
					}
					got := make([]byte, len(model))
					if _, err := a.ReadAt(got, 0); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, model) {
						t.Fatal("degraded read-back differs from model")
					}

					flaky[col].failReads.Store(false)
					flaky[col].failWrites.Store(false)
					flaky[col].Replace()
					if err := a.Rebuild(col); err != nil {
						t.Fatal(err)
					}
					checkSurvivesAnyTwo(t, a, model)
				})
			}
		}
	}
}
