package raid

import (
	"bytes"
	"testing"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
)

// The plan memo must serve repeated degraded fetch signatures without
// recomputing, and its answers must match direct planning bit for bit.
func TestPlanMemoHitsAndEquivalence(t *testing.T) {
	run := func(memoOff bool) ([]byte, int64) {
		a, _ := newArrayConc(t, "dcode", 7, 2)
		a.planMemoOff = memoOff
		data := pattern(int(a.Size()), 13)
		if _, err := a.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if err := a.FailDisk(2); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, a.Size())
		for rep := 0; rep < 3; rep++ { // repeats share one failure signature
			if _, err := a.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
		}
		return got, a.Snapshot().Counters.DegradedPlanHits
	}
	memoized, hits := run(false)
	direct, directHits := run(true)
	if !bytes.Equal(memoized, direct) {
		t.Fatal("memoized plans reconstruct different bytes than direct planning")
	}
	if hits == 0 {
		t.Fatal("repeated degraded reads produced no plan-memo hits")
	}
	if directHits != 0 {
		t.Fatalf("planMemoOff still counted %d hits", directHits)
	}
}

func TestPlanMemoInvalidatedOnFailureEpoch(t *testing.T) {
	a, mems := newArrayConc(t, "dcode", 5, 2)
	if _, err := a.WriteAt(pattern(int(a.Size()), 14), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	// Read an element that lives on the failed column so planning runs.
	lostIdx := -1
	for i := 0; i < a.Code().DataElems(); i++ {
		if a.Code().DataCoord(i).Col == 1 {
			lostIdx = i
			break
		}
	}
	buf := make([]byte, elemSize)
	if _, err := a.ReadAt(buf, int64(lostIdx)*elemSize); err != nil {
		t.Fatal(err)
	}
	a.plans.mu.Lock()
	populated := len(a.plans.plans)
	a.plans.mu.Unlock()
	if populated == 0 {
		t.Fatal("degraded read did not populate the plan memo")
	}
	mems[1].Replace()
	if err := a.Rebuild(1); err != nil {
		t.Fatal(err)
	}
	a.plans.mu.Lock()
	left := len(a.plans.plans)
	a.plans.mu.Unlock()
	if left != 0 {
		t.Fatalf("plan memo kept %d entries across a failure epoch", left)
	}
}

// BenchmarkDegradedRead measures the degraded single-element read path with
// the plan memo on (the default) and off, isolating what memoization saves.
func BenchmarkDegradedRead(b *testing.B) {
	for _, memoOff := range []bool{false, true} {
		name := "memo"
		if memoOff {
			name = "nomemo"
		}
		b.Run(name, func(b *testing.B) {
			code := codes.MustNew("dcode", 7)
			devs := make([]blockdev.Device, code.Cols())
			devSize := int64(4) * int64(code.Rows()) * elemSize
			for i := range devs {
				devs[i] = blockdev.NewMem(devSize)
			}
			a, err := New(code, devs, elemSize, 4)
			if err != nil {
				b.Fatal(err)
			}
			a.planMemoOff = memoOff
			fill := make([]byte, a.Size())
			for i := range fill {
				fill[i] = byte(i * 31)
			}
			if _, err := a.WriteAt(fill, 0); err != nil {
				b.Fatal(err)
			}
			if err := a.FailDisk(3); err != nil {
				b.Fatal(err)
			}
			// Rotate through the failed column's data elements so several
			// distinct signatures stay live in the memo.
			var offs []int64
			for i := 0; i < code.DataElems(); i++ {
				if code.DataCoord(i).Col == 3 {
					offs = append(offs, int64(i)*elemSize)
				}
			}
			buf := make([]byte, elemSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.ReadAt(buf, offs[i%len(offs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
