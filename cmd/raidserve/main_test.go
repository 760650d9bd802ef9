package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"reflect"
	"testing"

	"dcode/internal/arraydir"
	"dcode/internal/blockdev"
	"dcode/internal/blockserve"
	"dcode/internal/codes"
	"dcode/internal/obs"
	"dcode/internal/raid"
)

// smallArray is the geometry every test here serves: D-Code p=5, 512 B
// elements, 4 stripes.
var smallArray = arraydir.Descriptor{Code: "dcode", P: 5, Elem: 512, Stripes: 4}

func colSize(d arraydir.Descriptor) int64 {
	return d.Stripes * int64(codes.MustNew(d.Code, d.P).Rows()) * int64(d.Elem)
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed
	}
	return b
}

// serve starts the block service main runs over backend on a loopback port
// and returns the server, the channel Serve's result arrives on, and its
// address.
func serve(t *testing.T, backend blockserve.Backend) (*blockserve.Server, <-chan error, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := blockserve.New(backend, blockserve.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, done, ln.Addr().String()
}

func dial(t *testing.T, addr string) *blockdev.Remote {
	t.Helper()
	r, err := blockdev.DialRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// createJournaled makes dir a journaled array directory, as
// `raidctl create -journal` does.
func createJournaled(t *testing.T, dir string) arraydir.Descriptor {
	t.Helper()
	d := smallArray
	d.Journal = true
	if _, err := arraydir.Create(dir, d, nil); err != nil {
		t.Fatal(err)
	}
	return d
}

// A write that reaches a journaled array over the wire is bracketed in its
// journal.
func TestServedJournaledArrayLogsWrites(t *testing.T) {
	dir := t.TempDir()
	createJournaled(t, dir)
	arr, err := mountArray(dir, smallArray, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(arraydir.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv, done, addr := serve(t, arrayBackend{arr})
	if _, err := dial(t, addr).WriteAt(pattern(smallArray.Elem, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := drain(srv, done, dir, arr); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(arraydir.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, after) {
		t.Fatal("a network write left the journal unchanged: the served array has no journal attached")
	}
}

// A journaled directory left by a crash — an intent with no commit over a
// stripe whose data no longer matches its parity — is replayed when raidserve
// mounts it, so the stripe is consistent before the first request.
func TestServedJournaledArrayReplaysAtMount(t *testing.T) {
	dir := t.TempDir()
	d := createJournaled(t, dir)
	code := codes.MustNew(d.Code, d.P)
	devs := make([]blockdev.Device, code.Cols())
	for i := range devs {
		f, err := blockdev.OpenFile(arraydir.ImagePath(dir, i), colSize(d))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		devs[i] = f
	}
	// The crashing process: its intent for stripe 0 reaches the journal and
	// its commit does not.
	jnl := blockdev.NewMem(arraydir.JournalSize)
	crashed, err := raid.NewJournaled(code, devs, d.Elem, d.Stripes, jnl, nil)
	if err != nil {
		t.Fatal(err)
	}
	jnl.SetWriteLimit(1)
	if _, err := crashed.WriteAt(pattern(d.Elem, 2), 0); err != nil {
		t.Fatal(err)
	}
	// Nor did its parity update land: stripe 0's first cell changes under
	// an unchanged parity.
	if _, err := devs[0].WriteAt(pattern(d.Elem, 3), 0); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, arraydir.JournalSize)
	if _, err := jnl.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(arraydir.JournalPath(dir), img, 0o644); err != nil {
		t.Fatal(err)
	}

	arr, err := mountArray(dir, smallArray, nil)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := arr.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 0 {
		t.Fatalf("scrub after mount repaired %d stripes, want 0: the dirty stripe was not replayed", fixed)
	}
}

// A column that dies under raidserve is still failed after the server drains
// and the directory is reopened the way raidctl opens it.
func TestDrainSavesFailedColumns(t *testing.T) {
	dir := t.TempDir()
	colSrv, colDone, colAddr := serve(t, blockdev.NewMem(colSize(smallArray)))
	cols, err := dialRemotes("3="+colAddr, obs.NewRecorder(0))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := mountArray(dir, smallArray, cols)
	if err != nil {
		t.Fatal(err)
	}
	srv, done, addr := serve(t, arrayBackend{arr})
	client := dial(t, addr)
	data := pattern(int(arr.Size()), 4)
	if _, err := client.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	// Kill column 3's server; the next read that needs it marks it failed
	// and is served degraded.
	if err := colSrv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-colDone
	got := make([]byte, len(data))
	if _, err := client.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned the wrong bytes")
	}
	if f := arr.FailedDisks(); !reflect.DeepEqual(f, []int{3}) {
		t.Fatalf("failed columns under the server = %v, want [3]", f)
	}

	if err := drain(srv, done, dir, arr); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := arraydir.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := reopened.FailedDisks(); !reflect.DeepEqual(f, []int{3}) {
		t.Fatalf("failed columns after drain and reopen = %v, want [3]", f)
	}
}

// raidserve's first start in a directory with no descriptor creates the
// array as raidctl create does: images left there from elsewhere are
// zero-filled through the array, so every stripe's parity is consistent.
func TestFirstStartZeroFills(t *testing.T) {
	dir := t.TempDir()
	code := codes.MustNew(smallArray.Code, smallArray.P)
	for i := 0; i < code.Cols(); i++ {
		if err := os.WriteFile(arraydir.ImagePath(dir, i), pattern(int(colSize(smallArray)), byte(i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	arr, err := mountArray(dir, smallArray, nil)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := arr.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if fixed != 0 {
		t.Fatalf("scrub after first start repaired %d stripes, want 0", fixed)
	}
	got := make([]byte, arr.Size())
	if _, err := arr.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("a freshly created volume does not read as zeroes")
	}
}
