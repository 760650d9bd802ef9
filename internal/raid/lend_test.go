package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/erasure"
)

// copyOnly hides a MemDevice behind the Device interface, as every wrapper
// does: the array copies from it where it would borrow from the bare device.
type copyOnly struct{ blockdev.Device }

// lendTwin is one array over bare MemDevice columns, which lend, and its
// twin over the same contents behind copyOnly, which copy.
type lendTwin struct {
	lend, copy   *Array
	lmems, cmems []*blockdev.MemDevice
	model        []byte
}

const lendStripes = 4

func newLendTwin(t *testing.T, id string, p int) *lendTwin {
	t.Helper()
	tw := &lendTwin{}
	for side := 0; side < 2; side++ {
		code := codes.MustNew(id, p) // one code each: the XOR tallies are per code
		devs := make([]blockdev.Device, code.Cols())
		mems := make([]*blockdev.MemDevice, code.Cols())
		for i := range devs {
			mems[i] = blockdev.NewMem(lendStripes * int64(code.Rows()) * elemSize)
			devs[i] = mems[i]
			if side == 1 {
				devs[i] = copyOnly{mems[i]}
			}
		}
		a, err := New(code, devs, elemSize, lendStripes, WithConcurrency(2))
		if err != nil {
			t.Fatal(err)
		}
		if tw.model == nil {
			tw.model = pattern(int(a.Size()), 9)
		}
		if _, err := a.WriteAt(tw.model, 0); err != nil {
			t.Fatal(err)
		}
		if side == 0 {
			tw.lend, tw.lmems = a, mems
		} else {
			tw.copy, tw.cmems = a, mems
		}
	}
	for i, d := range tw.lend.columns {
		if d.mem == nil || tw.copy.columns[i].mem != nil {
			t.Fatalf("column %d: bare device lends %v, wrapped one %v", i, d.mem != nil, tw.copy.columns[i].mem != nil)
		}
	}
	return tw
}

// both applies f to each side.
func (tw *lendTwin) both(f func(a *Array, mems []*blockdev.MemDevice)) {
	f(tw.lend, tw.lmems)
	f(tw.copy, tw.cmems)
}

// check requires the two sides to agree on every tally a lend could skew,
// on the media, and on the failed set, with no loan left out.
func (tw *lendTwin) check(t *testing.T, what string) {
	t.Helper()
	ls, cs := tw.lend.Snapshot(), tw.copy.Snapshot()
	if !reflect.DeepEqual(ls.Load, cs.Load) {
		t.Errorf("%s: load %+v lending, %+v copying", what, ls.Load, cs.Load)
	}
	if ls.XOR != cs.XOR {
		t.Errorf("%s: XOR %+v lending, %+v copying", what, ls.XOR, cs.XOR)
	}
	if ls.Counters.SectorsRepaired != cs.Counters.SectorsRepaired {
		t.Errorf("%s: %d sectors repaired lending, %d copying", what, ls.Counters.SectorsRepaired, cs.Counters.SectorsRepaired)
	}
	if lf, cf := tw.lend.FailedDisks(), tw.copy.FailedDisks(); !reflect.DeepEqual(lf, cf) {
		t.Errorf("%s: failed %v lending, %v copying", what, lf, cf)
	}
	for i, lm := range tw.lmems {
		cm := tw.cmems[i]
		if lm.Stats() != cm.Stats() {
			t.Errorf("%s: column %d stats %+v lending, %+v copying", what, i, lm.Stats(), cm.Stats())
		}
		if n := lm.Loans(); n != 0 {
			t.Errorf("%s: column %d has %d loans out after the operation", what, i, n)
		}
		// Cell by cell: a bad sector nothing read is still bad, on both.
		lb, cb := make([]byte, elemSize), make([]byte, elemSize)
		for off := int64(0); off < lm.Size(); off += elemSize {
			_, lerr := lm.ReadAt(lb, off)
			_, cerr := cm.ReadAt(cb, off)
			if lerr != cerr || !bytes.Equal(lb, cb) {
				t.Fatalf("%s: column %d at %d: %x, %v lending; %x, %v copying", what, i, off, lb, lerr, cb, cerr)
			}
		}
	}
}

// badSector injects a bad sector into cell co of stripe 1 on both sides,
// runs op, and requires it to have repaired exactly that sector on each.
func (tw *lendTwin) badSector(t *testing.T, what string, co erasure.Coord, op func(a *Array, mems []*blockdev.MemDevice)) {
	t.Helper()
	before := tw.lend.Stats().SectorsRepaired
	off := tw.lend.deviceOffset(1, co.Row) + 3
	tw.lmems[co.Col].InjectBadSector(off)
	tw.cmems[co.Col].InjectBadSector(off)
	tw.both(op)
	if n := tw.lend.Stats().SectorsRepaired - before; n != 1 {
		t.Fatalf("%s: %d sectors repaired, want the one at %v", what, n, co)
	}
	tw.check(t, what)
}

// recoveryOnly returns a fetched cell that is not a data cell: one only
// recovery reads, in a run that lands in stripe memory.
func recoveryOnly(fetch []erasure.Coord, a *Array) (erasure.Coord, bool) {
	for _, co := range fetch {
		if a.code.DataIndex(co.Row, co.Col) < 0 {
			return co, true
		}
	}
	return erasure.Coord{}, false
}

// lendCodes are the codes and primes the lend-versus-copy twins run.
var lendCodes = []string{"dcode", "xcode", "rdp", "hdp", "evenodd"}

// TestLendMatchesCopy runs the reconstruction executor's three callers —
// Rebuild, degraded reads and read-repair — over bare MemDevice columns,
// which lend their runs, and over the same contents behind a wrapper, which
// copy them, for every single failed column. Bytes, per-disk device stats,
// the load tally, the XOR tallies, the sectors repaired and the failed set
// must all be the same: a lend is the copy it replaces, minus the copy.
func TestLendMatchesCopy(t *testing.T) {
	for _, id := range lendCodes {
		for _, p := range []int{5, 7} {
			cols := codes.MustNew(id, p).Cols()
			for col := 0; col < cols; col++ {
				t.Run(fmt.Sprintf("%s/p=%d/col=%d", id, p, col), func(t *testing.T) {
					testLendMatchesCopy(t, id, p, col)
				})
			}
		}
	}
}

func testLendMatchesCopy(t *testing.T, id string, p, col int) {
	tw := newLendTwin(t, id, p)
	size := tw.lend.Size()
	sdb := tw.lend.stripeDataBytes()

	// Rebuild.
	tw.both(func(a *Array, mems []*blockdev.MemDevice) {
		if err := a.FailDisk(col); err != nil {
			t.Fatal(err)
		}
		mems[col].Replace()
		if err := a.Rebuild(col); err != nil {
			t.Fatal(err)
		}
	})
	tw.check(t, "rebuild")

	// A seeded stream of unaligned degraded reads: partial cells are copied
	// out of lent views.
	tw.both(func(a *Array, _ []*blockdev.MemDevice) {
		if err := a.FailDisk(col); err != nil {
			t.Fatal(err)
		}
	})
	rng := rand.New(rand.NewSource(int64(p*100 + col)))
	for i := 0; i < 40; i++ {
		off := rng.Int63n(size - 1)
		n := 1 + rng.Intn(int(min(size-off, 2*sdb)))
		want := tw.model[off : off+int64(n)]
		tw.both(func(a *Array, _ []*blockdev.MemDevice) {
			got := make([]byte, n)
			if _, err := a.ReadAt(got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("degraded read of %d bytes at %d differs from what was written", n, off)
			}
		})
	}
	tw.check(t, "degraded reads")

	// A bad sector inside a run the degraded read lends: the lend fails, the
	// run retries cell by cell, and the bad cell is repaired. A read of
	// stripe 1's data lends the survivor cells only recovery needs; with a
	// parity column down, nothing is recovered and nothing lent.
	wanted := make([]erasure.Coord, tw.lend.code.DataElems())
	for i := range wanted {
		wanted[i] = tw.lend.code.DataCoord(i)
	}
	plan, err := tw.lend.planDegraded(col, wanted)
	if err != nil {
		t.Fatal(err)
	}
	if co, ok := recoveryOnly(plan.Fetch, tw.lend); ok {
		tw.badSector(t, "degraded read over a bad sector", co, func(a *Array, _ []*blockdev.MemDevice) {
			got := make([]byte, sdb)
			if _, err := a.ReadAt(got, sdb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tw.model[sdb:2*sdb]) {
				t.Fatal("degraded read over a bad sector differs from what was written")
			}
		})
	}

	// And one inside a run Rebuild lends.
	tw.badSector(t, "rebuild over a bad sector", tw.lend.rebuildPlan(col).Fetch[0], func(a *Array, mems []*blockdev.MemDevice) {
		mems[col].Replace()
		if err := a.Rebuild(col); err != nil {
			t.Fatal(err)
		}
	})
	tw.both(func(a *Array, _ []*blockdev.MemDevice) {
		got := make([]byte, size)
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tw.model) {
			t.Fatal("volume differs from what was written after the rebuilds")
		}
	})
}

// TestWrappersDoNotLend pins the concrete-type rule: a wrapper that embeds a
// MemDevice to inject read failures is not lent from, so its failures fire
// under Rebuild and under degraded reads, and mark its column.
func TestWrappersDoNotLend(t *testing.T) {
	const stripes = 3
	for _, op := range []string{"rebuild", "degraded read"} {
		t.Run(op, func(t *testing.T) {
			code := codes.MustNew("dcode", 7)
			devs := make([]blockdev.Device, code.Cols())
			flaky := make([]*flakyDev, code.Cols())
			for i := range devs {
				flaky[i] = &flakyDev{MemDevice: blockdev.NewMem(stripes * int64(code.Rows()) * elemSize)}
				devs[i] = flaky[i]
			}
			a, err := New(code, devs, elemSize, stripes)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range a.columns {
				if d.mem != nil {
					t.Fatalf("column %d: a wrapped MemDevice lends", i)
				}
			}
			model := pattern(int(a.Size()), 3)
			if _, err := a.WriteAt(model, 0); err != nil {
				t.Fatal(err)
			}
			if err := a.FailDisk(2); err != nil {
				t.Fatal(err)
			}
			flaky[4].failReads.Store(true)
			if op == "rebuild" {
				flaky[2].Replace()
				if err := a.Rebuild(2); err != nil {
					t.Fatal(err)
				}
			} else {
				got := make([]byte, len(model))
				if _, err := a.ReadAt(got, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, model) {
					t.Fatal("degraded read differs from what was written")
				}
			}
			if !a.isFailed(4) {
				t.Fatalf("%s: the wrapper's injected read failure did not fire: failed %v", op, a.FailedDisks())
			}
		})
	}
}
