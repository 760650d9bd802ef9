package arraydir

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/raid"
)

var small = Descriptor{Code: "dcode", P: 5, Elem: 512, Stripes: 4}

func TestCreateRefusesExistingArray(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, small, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, small, nil); err == nil {
		t.Fatal("a second Create in the same directory succeeded")
	}
}

// A Create that fails — on a descriptor that names no valid geometry, or
// after the descriptor is written — leaves no array.json behind, so a valid
// Create in the same directory then succeeds.
func TestFailedCreateLeavesNoDescriptor(t *testing.T) {
	colSize := int64(5) * int64(small.Elem) * small.Stripes
	for name, c := range map[string]struct {
		d    Descriptor
		cols map[int]blockdev.Device
	}{
		"unknown code":        {Descriptor{Code: "bogus", P: 5, Elem: 512, Stripes: 4}, nil},
		"prime":               {Descriptor{Code: "dcode", P: 4, Elem: 512, Stripes: 4}, nil},
		"element size":        {Descriptor{Code: "dcode", P: 5, Elem: 0, Stripes: 4}, nil},
		"stripes":             {Descriptor{Code: "dcode", P: 5, Elem: 512, Stripes: -1}, nil},
		"short column":        {small, map[int]blockdev.Device{1: blockdev.NewMem(colSize - 1)}},
		"column out of range": {small, map[int]blockdev.Device{9: blockdev.NewMem(colSize)}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Create(dir, c.d, c.cols); err == nil {
				t.Fatal("Create succeeded")
			}
			if _, err := os.Stat(descPath(dir)); !os.IsNotExist(err) {
				t.Fatalf("a failed Create left a descriptor (stat err %v)", err)
			}
			if _, err := Create(dir, small, nil); err != nil {
				t.Fatalf("valid Create after a failed one: %v", err)
			}
		})
	}
}

func TestOpenOutsideArrayDirectory(t *testing.T) {
	if _, _, err := Open(t.TempDir(), nil); err == nil {
		t.Fatal("Open of an empty directory succeeded")
	}
}

// The failed set survives a reopen until a rebuild clears it, and Blank
// refuses a column that is not failed: its image holds the only copy of its
// cells.
func TestFailedSetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := Create(dir, small, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("arraydir"), int(a.Size())/8)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := Blank(dir, 2); err == nil {
		t.Fatal("Blank of a healthy column succeeded")
	}
	if err := a.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if err := SaveFailed(dir, a); err != nil {
		t.Fatal(err)
	}

	if err := Blank(dir, 2); err != nil {
		t.Fatal(err)
	}
	a, d, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Failed, []int{2}) || !reflect.DeepEqual(a.FailedDisks(), []int{2}) {
		t.Fatalf("reopened: descriptor failed %v, array failed %v; want [2]", d.Failed, a.FailedDisks())
	}
	if err := a.Rebuild(2); err != nil {
		t.Fatal(err)
	}
	if err := SaveFailed(dir, a); err != nil {
		t.Fatal(err)
	}
	a, _, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := a.FailedDisks(); len(f) != 0 {
		t.Fatalf("failed after rebuild and reopen = %v, want none", f)
	}
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("rebuilt volume differs from what was written")
	}
	if fixed, err := a.Scrub(); err != nil || fixed != 0 {
		t.Fatalf("scrub after rebuild: fixed %d, err %v", fixed, err)
	}
}

// A caller-supplied column replaces its image file; one outside the code's
// columns is refused.
func TestOpenSuppliedColumns(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, small, nil); err != nil {
		t.Fatal(err)
	}
	d, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, colSize, err := d.geometry()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ImagePath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, map[int]blockdev.Device{1: blockdev.NewMem(colSize)}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ImagePath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("Open created an image for a supplied column (stat err %v)", err)
	}
	if _, _, err := Open(dir, map[int]blockdev.Device{5: blockdev.NewMem(colSize)}); err == nil {
		t.Fatal("a supplied column outside the code was accepted")
	}
}

// A journaled descriptor opens with its journal attached: a write logs an
// intent and a commit into the journal file.
func TestOpenAttachesJournal(t *testing.T) {
	dir := t.TempDir()
	d := small
	d.Journal = true
	if _, err := Create(dir, d, nil); err != nil {
		t.Fatal(err)
	}
	a, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != JournalSize || !bytes.Equal(img, make([]byte, JournalSize)) {
		t.Fatalf("journal after mount: %d bytes, not a cleared %d-byte ring", len(img), JournalSize)
	}
	if _, err := a.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if img, err = os.ReadFile(JournalPath(dir)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(img, make([]byte, JournalSize)) {
		t.Fatal("a write left the journal empty")
	}
}

// A journaled array whose saved failed set names a column, and whose journal
// holds an intent with no commit, is dirty and degraded: replay cannot tell
// the failed column's stale image from data, so Open refuses to mount rather
// than re-encode parity over it and serve the stale cells.
func TestOpenRefusesDirtyDegradedJournal(t *testing.T) {
	dir := t.TempDir()
	d := small
	d.Journal = true
	a, err := Create(dir, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if err := SaveFailed(dir, a); err != nil {
		t.Fatal(err)
	}
	// An acknowledged degraded write: column 2's image keeps Create's zeroes.
	a, _, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("degraded"), int(a.Size())/8)
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	// A crash in a later write over stripe 0: its intent reaches the journal
	// and its commit does not.
	code := codes.MustNew(d.Code, d.P)
	_, colSize, err := d.geometry()
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]blockdev.Device, code.Cols())
	for i := range devs {
		f, err := blockdev.OpenFile(ImagePath(dir, i), colSize)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		devs[i] = f
	}
	jnl := blockdev.NewMem(JournalSize)
	crashed, err := raid.NewJournaled(code, devs, d.Elem, d.Stripes, jnl, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	jnl.SetWriteLimit(1)
	if _, err := crashed.WriteAt(data[:d.Elem], 0); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, JournalSize)
	if _, err := jnl.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(JournalPath(dir), img, 0o644); err != nil {
		t.Fatal(err)
	}

	a, _, err = Open(dir, nil)
	if err == nil {
		got := make([]byte, len(data))
		_, rerr := a.ReadAt(got, 0)
		stale := 0
		for i := range got {
			if got[i] != data[i] {
				stale++
			}
		}
		t.Fatalf("Open mounted a dirty, degraded array (read err %v, %d of %d bytes stale)", rerr, stale, len(data))
	}
	if !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("Open refused for another reason: %v", err)
	}
}
