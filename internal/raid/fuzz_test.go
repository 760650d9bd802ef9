package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
)

// TestRandomOpsAgainstModel drives the array with a long random sequence of
// reads, writes, disk failures, latent sector errors, replacements, rebuilds
// and scrubs, checking every read against a plain in-memory model of the
// volume. This is the whole-engine integration check: if any code path (the
// write plan, degraded reads and writes, rebuild, read-repair, failure
// discovery) corrupts a byte, the model disagrees. The reconstruction
// executor's three callers — degraded reads, rebuild and read-repair — all
// run; EVENODD rebuilds through the degraded planner's plan, the others
// mostly through recovery.Optimize's.
func TestRandomOpsAgainstModel(t *testing.T) {
	for _, id := range []string{"dcode", "rdp", "hdp", "evenodd"} {
		t.Run(id, func(t *testing.T) {
			a, mems := newArray(t, id, 7, 6)
			model := make([]byte, a.Size())
			rng := rand.New(rand.NewSource(int64(len(id)) * 977))

			// Start from a fully written volume.
			rng.Read(model)
			if _, err := a.WriteAt(model, 0); err != nil {
				t.Fatal(err)
			}

			// failedSet holds the disks the test failed; the array may also
			// fail a column itself, when a read-repair cannot be served. down
			// is both, sorted.
			failedSet := map[int]bool{}
			down := func() []int {
				cols := a.FailedDisks()
				for d := range failedSet {
					if !slices.Contains(cols, d) {
						cols = append(cols, d)
					}
				}
				slices.Sort(cols)
				return cols
			}
			rebuild := func(d int) error {
				mems[d].Replace()
				// The array may not have noticed the failure yet (nothing
				// touched that disk); tell it explicitly so Rebuild is legal.
				if err := a.FailDisk(d); err != nil {
					return err
				}
				delete(failedSet, d)
				return a.Rebuild(d)
			}
			// latent is the column holding an unrepaired bad sector, -1 for
			// none. At most one is outstanding, and then at most one disk is
			// failed besides the column a failed repair may mark: two failed
			// columns plus a latent sector error lose data.
			latent := -1
			steps := 400
			if testing.Short() {
				steps = 100
			}
			for i := 0; i < steps; i++ {
				switch op := rng.Intn(100); {
				case op < 40: // read
					n := 1 + rng.Intn(600)
					off := rng.Int63n(a.Size() - int64(n))
					got := make([]byte, n)
					if _, err := a.ReadAt(got, off); err != nil {
						t.Fatalf("step %d: read: %v", i, err)
					}
					if !bytes.Equal(got, model[off:off+int64(n)]) {
						t.Fatalf("step %d: read mismatch at %d+%d", i, off, n)
					}
				case op < 75: // write
					n := 1 + rng.Intn(600)
					off := rng.Int63n(a.Size() - int64(n))
					buf := make([]byte, n)
					rng.Read(buf)
					if _, err := a.WriteAt(buf, off); err != nil {
						t.Fatalf("step %d: write: %v", i, err)
					}
					copy(model[off:], buf)
				case op < 83: // fail a disk
					dn := down()
					if len(dn) >= 2 || (latent >= 0 && len(dn) >= 1) {
						continue
					}
					d := rng.Intn(len(mems))
					if slices.Contains(dn, d) {
						continue
					}
					mems[d].Fail()
					failedSet[d] = true
				case op < 91: // a latent sector error on a surviving cell
					dn := down()
					if latent >= 0 || len(dn) >= 2 {
						continue
					}
					c := rng.Intn(len(mems))
					if slices.Contains(dn, c) {
						continue
					}
					si := rng.Int63n(a.stripes)
					row := rng.Intn(a.Code().Rows())
					mems[c].InjectBadSector(a.deviceOffset(si, row) + rng.Int63n(elemSize))
					latent = c
				case op < 95: // scrub a healthy array: read-repair heals in place
					if len(down()) > 0 {
						continue
					}
					if fixed, err := a.Scrub(); err != nil || fixed != 0 {
						t.Fatalf("step %d: scrub: fixed=%d err=%v", i, fixed, err)
					}
					latent = -1
				default: // replace + rebuild the lowest failed disk
					dn := down()
					if len(dn) == 0 {
						continue
					}
					if err := rebuild(dn[0]); err != nil {
						t.Fatalf("step %d: rebuild %d: %v", i, dn[0], err)
					}
					if dn[0] == latent {
						latent = -1
					}
				}
			}

			// Drain: repair everything and verify the full volume + parity.
			for _, d := range down() {
				if err := rebuild(d); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]byte, a.Size())
			if _, err := a.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model) {
				t.Fatal("final volume does not match the model")
			}
			if fixed, err := a.Scrub(); err != nil || fixed != 0 {
				t.Fatalf("final scrub: fixed=%d err=%v", fixed, err)
			}
			// The full run must reach every reconstruction path; the short
			// one is a quarter as long and may miss a repair.
			if st := a.Stats(); !testing.Short() &&
				(st.SectorsRepaired == 0 || st.StripesRebuilt == 0 || st.DegradedReads == 0) {
				t.Fatalf("the op mix missed a reconstruction path: %+v", st)
			}
		})
	}
}

// FuzzArrayOps interprets the fuzz input as an operation stream — each byte
// triple selects (op, offset, length) — and drives a small D-Code array with
// it, checking every read against an in-memory model and the final volume
// plus parity at the end. It is the coverage-guided twin of
// TestRandomOpsAgainstModel, aimed at the offset/length edge cases in
// splitBytes, RMW-vs-reconstruct strategy selection and failure handling.
func FuzzArrayOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Add([]byte{0x40, 0xFF, 0x00, 0x80, 0x00, 0x10, 0xC0, 0x00, 0x00})
	f.Add(bytes.Repeat([]byte{0x91, 0x3C, 0x77}, 20))
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 512 {
			input = input[:512]
		}
		code := codes.MustNew("dcode", 5)
		devs := make([]blockdev.Device, code.Cols())
		mems := make([]*blockdev.MemDevice, code.Cols())
		const stripes, fuzzElem = 3, 16
		devSize := stripes * int64(code.Rows()) * fuzzElem
		for i := range devs {
			mems[i] = blockdev.NewMem(devSize)
			devs[i] = mems[i]
		}
		a, err := New(code, devs, fuzzElem, stripes)
		if err != nil {
			t.Fatal(err)
		}
		model := make([]byte, a.Size())
		if _, err := a.WriteAt(model, 0); err != nil {
			t.Fatal(err)
		}

		failed := -1
		for i := 0; i+2 < len(input); i += 3 {
			op, b1, b2 := input[i], input[i+1], input[i+2]
			off := int64(b1) * a.Size() / 256
			n := 1 + int(b2)%64
			if off+int64(n) > a.Size() {
				n = int(a.Size() - off)
			}
			switch op % 4 {
			case 0: // read and check
				got := make([]byte, n)
				if _, err := a.ReadAt(got, off); err != nil {
					t.Fatalf("read at %d+%d: %v", off, n, err)
				}
				if !bytes.Equal(got, model[off:off+int64(n)]) {
					t.Fatalf("read mismatch at %d+%d", off, n)
				}
			case 1, 2: // write (deterministic content from the input)
				buf := make([]byte, n)
				for j := range buf {
					buf[j] = b1 ^ b2 ^ byte(j)
				}
				if _, err := a.WriteAt(buf, off); err != nil {
					t.Fatalf("write at %d+%d: %v", off, n, err)
				}
				copy(model[off:], buf)
			case 3: // toggle one failure
				if failed < 0 {
					failed = int(b1) % len(mems)
					mems[failed].Fail()
				} else {
					mems[failed].Replace()
					if err := a.FailDisk(failed); err != nil {
						t.Fatal(err)
					}
					if err := a.Rebuild(failed); err != nil {
						t.Fatalf("rebuild %d: %v", failed, err)
					}
					failed = -1
				}
			}
		}
		if failed >= 0 {
			mems[failed].Replace()
			if err := a.FailDisk(failed); err != nil {
				t.Fatal(err)
			}
			if err := a.Rebuild(failed); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, a.Size())
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatal("final volume does not match the model")
		}
		if fixed, err := a.Scrub(); err != nil || fixed != 0 {
			t.Fatalf("final scrub: fixed=%d err=%v", fixed, err)
		}
	})
}

// TestConcurrentReadersAndWriters hammers disjoint regions of the volume
// from many goroutines while a disk fails mid-run, then verifies every
// region and the parity. Run with -race to check the locking.
func TestConcurrentReadersAndWriters(t *testing.T) {
	a, mems := newArray(t, "dcode", 7, 16)
	if _, err := a.WriteAt(pattern(int(a.Size()), 61), 0); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	region := a.Size() / workers
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := int64(w) * region
			local := pattern(int(region), byte(w))
			if _, err := a.WriteAt(local, base); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 30; i++ {
				n := 1 + rng.Intn(int(region)-1)
				off := base + rng.Int63n(region-int64(n))
				if rng.Intn(2) == 0 {
					buf := make([]byte, n)
					rng.Read(buf)
					if _, err := a.WriteAt(buf, off); err != nil {
						errs <- err
						return
					}
					copy(local[off-base:], buf)
				} else {
					got := make([]byte, n)
					if _, err := a.ReadAt(got, off); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, local[off-base:off-base+int64(n)]) {
						errs <- fmt.Errorf("worker %d: stale read at %d", w, off)
						return
					}
				}
				if w == 0 && i == 10 {
					mems[3].Fail() // mid-run failure under full load
				}
			}
			// Final verification of the whole region.
			got := make([]byte, region)
			if _, err := a.ReadAt(got, base); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, local) {
				errs <- fmt.Errorf("worker %d: final region mismatch", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mems[3].Replace()
	if err := a.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	if err := a.Rebuild(3); err != nil {
		t.Fatal(err)
	}
	if fixed, err := a.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("post-stress scrub: fixed=%d err=%v", fixed, err)
	}
}
