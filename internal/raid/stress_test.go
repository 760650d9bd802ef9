package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestMixedOpsFailScrubStress drives reads, writes, disk failure/rebuild
// cycles and scrubs against one array at once. It is primarily a race-
// detector workload (the CI race job runs it with -race): the erasure
// kernels, the pooled scratch buffers and the maintenance paths all
// interleave here, so a locking or coherence regression in any of them shows
// up as a data race or a failed read-back.
func TestMixedOpsFailScrubStress(t *testing.T) {
	iters := 150
	if raceEnabled || testing.Short() {
		iters = 60
	}
	const stripes = 6
	a, mems := newArrayConc(t, "dcode", 5, stripes,
		WithConcurrency(4))
	size := a.Size()

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Writers: deterministic per-goroutine payloads at scattered offsets.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				n := 1 + rng.Intn(3*elemSize)
				off := rng.Int63n(size - int64(n))
				buf := make([]byte, n)
				for j := range buf {
					buf[j] = byte(seed) + byte(i) + byte(j)
				}
				if _, err := a.WriteAt(buf, off); err != nil {
					report(fmt.Errorf("WriteAt(%d,%d): %w", n, off, err))
					return
				}
			}
		}(int64(g + 1))
	}

	// Readers: concurrent content is indeterminate; only errors count.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 3*elemSize)
			for i := 0; i < iters; i++ {
				n := 1 + rng.Intn(len(buf))
				off := rng.Int63n(size - int64(n))
				if _, err := a.ReadAt(buf[:n], off); err != nil {
					report(fmt.Errorf("ReadAt(%d,%d): %w", n, off, err))
					return
				}
			}
		}(int64(100 + g))
	}

	// Failure cycle: fail a column, replace the media, rebuild it. The array
	// never has more than this one failure, so every op must keep succeeding.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			col := 1 + i%2
			if err := a.FailDisk(col); err != nil {
				report(fmt.Errorf("FailDisk(%d): %w", col, err))
				return
			}
			mems[col].Replace()
			if err := a.Rebuild(col); err != nil {
				report(fmt.Errorf("Rebuild(%d): %w", col, err))
				return
			}
		}
	}()

	// Scrubber: runs under the exclusive op lock, so writers are quiesced
	// for each pass and recomputed parity must match.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			_, err := a.Scrub()
			if err != nil && !strings.Contains(err.Error(), "healthy array") {
				// Refusing to scrub degraded is correct behavior while the
				// failure cycle holds a disk down; anything else is a bug.
				report(fmt.Errorf("Scrub: %w", err))
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Quiesced array: a full read-back and a final scrub must both succeed,
	// and the scrub must find parity coherent.
	buf := make([]byte, size)
	if _, err := a.ReadAt(buf, 0); err != nil {
		t.Fatalf("final ReadAt: %v", err)
	}
	mism, err := a.Scrub()
	if err != nil {
		t.Fatalf("final Scrub: %v", err)
	}
	if mism != 0 {
		t.Errorf("final Scrub found %d parity mismatches on a quiesced array", mism)
	}
}

// TestScrubUnderWritesKeepsEveryByte races writers against back-to-back
// Scrub passes on a healthy D-Code array. Each writer owns every fourth
// element-sized chunk of the volume, so writers share stripes and parity
// groups but never bytes, and one flat byte model holds the volume's exact
// content: every write is read back at once, and the whole volume at the
// end. Scrub takes the array exclusively, so no pass ever sees a write
// half-applied: every pass, and a final one, repairs 0 stripes. A scrub that
// ran beside a write would see its parity mid-update, re-encode the stripe it
// loaded and store it over the write.
func TestScrubUnderWritesKeepsEveryByte(t *testing.T) {
	const (
		stripes = 4
		writers = 4
	)
	iters := 400
	if raceEnabled || testing.Short() {
		iters = 150
	}
	a, _ := newArrayConc(t, "dcode", 5, stripes, WithConcurrency(2))
	size := int(a.Size())
	model := make([]byte, size)
	if _, err := a.WriteAt(model, 0); err != nil {
		t.Fatal(err)
	}
	chunks := size / elemSize

	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			buf, got := make([]byte, elemSize), make([]byte, elemSize)
			for i := 0; i < iters; i++ {
				// A chunk of this writer's, and a sub-range of it, so both
				// whole-element and partial writes race the scrub.
				c := w + writers*rng.Intn(chunks/writers)
				lo := rng.Intn(elemSize)
				hi := lo + 1 + rng.Intn(elemSize-lo)
				off := c*elemSize + lo
				rng.Read(buf[:hi-lo])
				if _, err := a.WriteAt(buf[:hi-lo], int64(off)); err != nil {
					errc <- fmt.Errorf("writer %d: WriteAt(%d bytes at %d): %w", w, hi-lo, off, err)
					return
				}
				copy(model[off:], buf[:hi-lo])
				if _, err := a.ReadAt(got, int64(c*elemSize)); err != nil {
					errc <- fmt.Errorf("writer %d: ReadAt(chunk %d): %w", w, c, err)
					return
				}
				if !bytes.Equal(got, model[c*elemSize:(c+1)*elemSize]) {
					errc <- fmt.Errorf("writer %d op %d: chunk %d reads back other bytes than were written", w, i, c)
					return
				}
			}
		}(w)
	}
	var passes int
	scrubbed := make(chan struct{})
	go func() {
		defer close(scrubbed)
		for {
			select {
			case <-done:
				return
			default:
			}
			fixed, err := a.Scrub()
			if err != nil || fixed != 0 {
				errc <- fmt.Errorf("scrub pass %d beside writes: %d stripes repaired, %v", passes, fixed, err)
				return
			}
			passes++
		}
	}()
	wg.Wait()
	close(done)
	<-scrubbed
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if passes == 0 {
		t.Fatal("no scrub pass ran beside the writes")
	}
	got := make([]byte, size)
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("the volume differs from the byte model after the writes")
	}
	if fixed, err := a.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("final scrub repaired %d stripes, %v; want 0", fixed, err)
	}
	t.Logf("%d scrub passes beside %d writes", passes, writers*iters)
}
