package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"dcode/internal/obs"
	"dcode/internal/trace"
)

// chunkRand cuts p into deterministic pseudo-random pieces, including some
// empty ones, to exercise every scatter/gather shape.
func chunkRand(p []byte, rng *rand.Rand) [][]byte {
	var bufs [][]byte
	for i := 0; i < len(p); {
		n := rng.Intn(17)
		if i+n > len(p) {
			n = len(p) - i
		}
		bufs = append(bufs, p[i:i+n])
		i += n
	}
	bufs = append(bufs, p[len(p):]) // trailing empty buffer
	return bufs
}

func TestMemVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewMem(4096)
	want := make([]byte, 1000)
	rng.Read(want)
	wbufs := chunkRand(bytes.Clone(want), rng)
	if n, err := d.WriteVecAt(wbufs, 100); err != nil || n != len(want) {
		t.Fatalf("WriteVecAt = %d, %v", n, err)
	}
	got := make([]byte, len(want))
	rbufs := chunkRand(got, rng)
	if n, err := d.ReadVecAt(rbufs, 100); err != nil || n != len(want) {
		t.Fatalf("ReadVecAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("vectored round trip corrupted data")
	}
	// Each vec call is one physical access, whatever the buffer count.
	if st := d.Stats(); st.Reads != 1 || st.Writes != 1 ||
		st.BytesRead != int64(len(want)) || st.BytesWritten != int64(len(want)) {
		t.Fatalf("stats = %+v, want 1 read / 1 write of %d bytes", st, len(want))
	}
}

func TestMemVecRangeAndFailure(t *testing.T) {
	d := NewMem(64)
	bufs := [][]byte{make([]byte, 32), make([]byte, 33)}
	if _, err := d.ReadVecAt(bufs, 0); err == nil {
		t.Fatal("out-of-range vectored read succeeded")
	}
	if _, err := d.WriteVecAt(bufs, 0); err == nil {
		t.Fatal("out-of-range vectored write succeeded")
	}
	d.Fail()
	if _, err := d.ReadVecAt([][]byte{make([]byte, 8)}, 0); !errors.Is(err, ErrFailed) {
		t.Fatalf("read on failed device: %v, want ErrFailed", err)
	}
	if _, err := d.WriteVecAt([][]byte{make([]byte, 8)}, 0); !errors.Is(err, ErrFailed) {
		t.Fatalf("write on failed device: %v, want ErrFailed", err)
	}
}

func TestMemVecBadSectorAndHeal(t *testing.T) {
	d := NewMem(64)
	d.InjectBadSector(20)
	bufs := [][]byte{make([]byte, 16), make([]byte, 16)}
	if _, err := d.ReadVecAt(bufs, 8); !errors.Is(err, ErrBadSector) {
		t.Fatalf("vectored read over bad sector: %v, want ErrBadSector", err)
	}
	// A gather write over the sector heals it, like WriteAt.
	if _, err := d.WriteVecAt(bufs, 8); err != nil {
		t.Fatalf("healing vectored write: %v", err)
	}
	if _, err := d.ReadVecAt(bufs, 8); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

func TestMemVecWriteLimit(t *testing.T) {
	d := NewMem(64)
	d.SetWriteLimit(1)
	one := [][]byte{{1, 2}, {3, 4}}
	if _, err := d.WriteVecAt(one, 0); err != nil {
		t.Fatal(err)
	}
	// Limit exhausted: the whole vectored call is one write, lost silently.
	if _, err := d.WriteVecAt([][]byte{{9, 9}}, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("post-limit vectored write persisted: %v", got)
	}
}

// TestFileVecRoundTrip exercises the FileDevice scatter/gather paths,
// including buffer lists longer than one syscall's iovec chunk. Every range
// is written and read twice: on Linux the first pass populates its pages
// through preadv/pwritev and the second is served from the shared mapping.
// The descriptor case drops the mapping, so the syscalls (the per-buffer loop
// off Linux) serve every call.
func TestFileVecRoundTrip(t *testing.T) {
	for _, mapped := range []bool{true, false} {
		name := "descriptor"
		if mapped {
			name = "mapped"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			path := filepath.Join(t.TempDir(), "vec.img")
			d, err := OpenFile(path, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if !mapped {
				if err := d.unmapFile(); err != nil {
					t.Fatal(err)
				}
			}
			for _, pass := range []string{"first pass", "second pass"} {
				for _, tc := range []struct {
					name  string
					n     int
					piece int
					off   int64
				}{
					{"small", 100, 7, 0},
					{"odd-tail", 4097, 64, 513},
					{"many-bufs", 3000, 3, 1 << 19}, // 1000 buffers: several iovec chunks
				} {
					want := make([]byte, tc.n)
					rng.Read(want)
					var wbufs [][]byte
					for i := 0; i < tc.n; i += tc.piece {
						end := min(i+tc.piece, tc.n)
						wbufs = append(wbufs, bytes.Clone(want[i:end]))
					}
					if n, err := d.WriteVecAt(wbufs, tc.off); err != nil || n != tc.n {
						t.Fatalf("%s, %s: WriteVecAt = %d, %v", tc.name, pass, n, err)
					}
					flat := make([]byte, tc.n)
					if _, err := d.ReadAt(flat, tc.off); err != nil {
						t.Fatalf("%s, %s: ReadAt back: %v", tc.name, pass, err)
					}
					if !bytes.Equal(flat, want) {
						t.Fatalf("%s, %s: gather write landed wrong bytes", tc.name, pass)
					}
					got := make([]byte, tc.n)
					var rbufs [][]byte
					for i := 0; i < tc.n; i += tc.piece {
						end := min(i+tc.piece, tc.n)
						rbufs = append(rbufs, got[i:end])
					}
					if n, err := d.ReadVecAt(rbufs, tc.off); err != nil || n != tc.n {
						t.Fatalf("%s, %s: ReadVecAt = %d, %v", tc.name, pass, n, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s, %s: scatter read returned wrong bytes", tc.name, pass)
					}
				}
			}
		})
	}
}

func TestFileVecReadPastEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.img")
	d, err := OpenFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	bufs := [][]byte{make([]byte, 64), make([]byte, 128)}
	if _, err := d.ReadVecAt(bufs, 64); err == nil {
		t.Fatal("vectored read past EOF succeeded")
	}
}

func TestDelayedPerByte(t *testing.T) {
	mem := NewMem(4096)
	d := &Delayed{Device: mem, Delay: time.Millisecond, PerByte: 10 * time.Microsecond}
	p := make([]byte, 1024)

	start := time.Now()
	if _, err := d.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	// time.Sleep never undersleeps: a 1024-byte read must cost at least
	// Delay + 1024*PerByte ≈ 11.2ms, where the old flat model charged 1ms.
	if el, minWant := time.Since(start), d.Delay+1024*d.PerByte; el < minWant {
		t.Fatalf("per-byte read slept %v, want ≥ %v", el, minWant)
	}

	start = time.Now()
	if _, err := d.WriteVecAt([][]byte{p[:512], p[512:]}, 0); err != nil {
		t.Fatal(err)
	}
	if el, minWant := time.Since(start), d.Delay+1024*d.PerByte; el < minWant {
		t.Fatalf("per-byte vectored write slept %v, want ≥ %v", el, minWant)
	}
	// One vectored call is one physical access on the wrapped device.
	if st := mem.Stats(); st.Writes != 1 {
		t.Fatalf("vectored write through Delayed made %d physical writes, want 1", st.Writes)
	}
}

func TestInstrumentedVecTallies(t *testing.T) {
	mem := NewMem(4096)
	d := Instrument(mem)
	var hookOps, hookBytes int64
	d.SetOpHook(func(write bool, ops, bytes int64, _ int64) {
		hookOps += ops
		hookBytes += bytes
	})
	bufs := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16)}
	if _, _, err := d.WriteVecAtNLink(bufs, 0, 3, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadVecAtNLink(bufs, 0, 3, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.Reads.Load() != 3 || m.Writes.Load() != 3 {
		t.Fatalf("ops-equivalent tallies = %d reads / %d writes, want 3 / 3",
			m.Reads.Load(), m.Writes.Load())
	}
	if m.BytesRead.Load() != 48 || m.BytesWritten.Load() != 48 {
		t.Fatalf("byte tallies = %d / %d, want 48 / 48", m.BytesRead.Load(), m.BytesWritten.Load())
	}
	if hookOps != 6 || hookBytes != 96 {
		t.Fatalf("hook saw ops=%d bytes=%d, want 6 / 96", hookOps, hookBytes)
	}
	// A call tallies the ops it is handed, however many buffers it moves.
	if _, _, err := d.ReadVecAtNLink(bufs, 0, 1, trace.Link{}, obs.Mono()); err != nil {
		t.Fatal(err)
	}
	if m.Reads.Load() != 4 {
		t.Fatalf("a one-op vectored read tallied %d, want one more read", m.Reads.Load()-3)
	}
	// A failed vectored call is one failed access.
	mem.Fail()
	if _, _, err := d.ReadVecAtNLink(bufs, 0, 3, trace.Link{}, obs.Mono()); !errors.Is(err, ErrFailed) {
		t.Fatalf("vec read on failed device: %v", err)
	}
	if m.Reads.Load() != 5 || m.ReadErrors.Load() != 1 {
		t.Fatalf("failed vec read tallies = %d reads / %d errors, want 5 / 1",
			m.Reads.Load(), m.ReadErrors.Load())
	}
}

func TestRemoteVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mem := NewMem(1 << 16)
	r := dialFast(t, serveMem(t, mem))
	want := make([]byte, 2000)
	rng.Read(want)
	wbufs := chunkRand(bytes.Clone(want), rng)
	if n, err := r.WriteVecAt(wbufs, 4096); err != nil || n != len(want) {
		t.Fatalf("WriteVecAt = %d, %v", n, err)
	}
	got := make([]byte, len(want))
	rbufs := chunkRand(got, rng)
	if n, err := r.ReadVecAt(rbufs, 4096); err != nil || n != len(want) {
		t.Fatalf("ReadVecAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("remote vectored round trip corrupted data")
	}
	// One wire op each way: the backing device saw one read and one write.
	if st := mem.Stats(); st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("backend stats = %+v, want one read and one write", st)
	}
}
