// Package arraydir is the on-disk array directory raidctl and raidserve
// share, kept out of the engine: an array.json descriptor, one disk%d.img
// image per column and, for a journaled array, the write-intent journal in
// journal.img. SaveFailed writes the failed set back and Open re-applies it,
// so a column that died in one process stays failed until it is rebuilt.
package arraydir

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/erasure"
	"dcode/internal/raid"
)

// JournalSize is the size of journal.img: 2048 intent/commit slots.
const JournalSize = 64 << 10

// Descriptor is the array.json schema.
type Descriptor struct {
	Code    string `json:"code"`
	P       int    `json:"p"`
	Elem    int    `json:"elem"`
	Stripes int64  `json:"stripes"`
	Failed  []int  `json:"failed"`
	Journal bool   `json:"journal,omitempty"`
}

func descPath(dir string) string { return filepath.Join(dir, "array.json") }

// ImagePath returns the image file of column col.
func ImagePath(dir string, col int) string {
	return filepath.Join(dir, fmt.Sprintf("disk%d.img", col))
}

// JournalPath returns the journal file of a journaled array.
func JournalPath(dir string) string { return filepath.Join(dir, "journal.img") }

// Load reads dir's descriptor. Outside an array directory the error wraps
// fs.ErrNotExist.
func Load(dir string) (Descriptor, error) {
	var d Descriptor
	b, err := os.ReadFile(descPath(dir))
	if err != nil {
		return d, fmt.Errorf("not an array directory: %w", err)
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", descPath(dir), err)
	}
	return d, nil
}

func (d Descriptor) save(dir string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(descPath(dir), b, 0o644)
}

// geometry returns the descriptor's code and the bytes each column holds,
// refusing an unknown code, a prime the code does not take, or an element
// size or stripe count that is not positive.
func (d Descriptor) geometry() (*erasure.Code, int64, error) {
	entry, err := codes.ByID(d.Code)
	if err != nil {
		return nil, 0, err
	}
	c, err := entry.New(d.P)
	if err != nil {
		return nil, 0, err
	}
	if d.Elem <= 0 || d.Stripes <= 0 {
		return nil, 0, fmt.Errorf("element size %d and stripe count %d must be positive", d.Elem, d.Stripes)
	}
	return c, d.Stripes * int64(c.Rows()) * int64(d.Elem), nil
}

// Create makes dir an array directory holding d, refusing one that already
// has a descriptor, and zero-fills the volume through the array so every
// stripe's parity matches its data. cols is as for Open. A descriptor that
// does not name a valid geometry is refused before anything is written, and
// a Create that fails after writing it removes it again, so the directory is
// left free for the next Create.
func Create(dir string, d Descriptor, cols map[int]blockdev.Device, opts ...raid.Option) (a *raid.Array, err error) {
	if _, _, err := d.geometry(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(descPath(dir)); err == nil {
		return nil, fmt.Errorf("array already exists in %s", dir)
	}
	if err := d.save(dir); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, os.Remove(descPath(dir)))
			a = nil
		}
	}()
	if a, _, err = Open(dir, cols, opts...); err != nil {
		return nil, err
	}
	zero := make([]byte, 1<<16)
	for off := int64(0); off < a.Size(); off += int64(len(zero)) {
		chunk := zero
		if rem := a.Size() - off; rem < int64(len(chunk)) {
			chunk = chunk[:rem]
		}
		if _, err := a.WriteAt(chunk, off); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Open assembles dir's array. cols supplies the devices of columns served
// elsewhere (a network-attached column); every other column is its image
// file in dir. The descriptor's failed columns are failed again; a journaled
// array is opened with raid.NewJournaled, which fails them before it replays
// the journal.
func Open(dir string, cols map[int]blockdev.Device, opts ...raid.Option) (a *raid.Array, d Descriptor, err error) {
	if d, err = Load(dir); err != nil {
		return nil, d, err
	}
	c, colSize, err := d.geometry()
	if err != nil {
		return nil, d, err
	}
	for col := range cols {
		if col < 0 || col >= c.Cols() {
			return nil, d, fmt.Errorf("column %d out of range for %d-column %s", col, c.Cols(), c.Name())
		}
	}
	var files []*blockdev.FileDevice // closed again if assembly fails
	defer func() {
		if err != nil {
			for _, f := range files {
				f.Close()
			}
		}
	}()
	openFile := func(path string, size int64) (blockdev.Device, error) {
		f, err := blockdev.OpenFile(path, size)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	devs := make([]blockdev.Device, c.Cols())
	for i := range devs {
		if dev, ok := cols[i]; ok {
			devs[i] = dev
			continue
		}
		if devs[i], err = openFile(ImagePath(dir, i), colSize); err != nil {
			return nil, d, err
		}
	}
	if d.Journal {
		jdev, jerr := openFile(JournalPath(dir), JournalSize)
		if jerr != nil {
			return nil, d, jerr
		}
		// The failed set goes in before replay, so a dirty journal over a
		// degraded array is refused instead of re-encoding parity over a
		// dead column's stale image.
		a, err = raid.NewJournaled(c, devs, d.Elem, d.Stripes, jdev, d.Failed, opts...)
		return a, d, err
	}
	if a, err = raid.New(c, devs, d.Elem, d.Stripes, opts...); err != nil {
		return nil, d, err
	}
	for _, f := range d.Failed {
		if err = a.FailDisk(f); err != nil {
			return nil, d, err
		}
	}
	return a, d, nil
}

// SaveFailed records a's failed columns in dir's descriptor.
func SaveFailed(dir string, a *raid.Array) error {
	d, err := Load(dir)
	if err != nil {
		return err
	}
	d.Failed = a.FailedDisks()
	return d.save(dir)
}

// Blank replaces the image of failed column col with zeroes, as a swapped
// drive would be. A column the descriptor does not list as failed still holds
// the only copy of its cells, and is refused.
func Blank(dir string, col int) error {
	d, err := Load(dir)
	if err != nil {
		return err
	}
	if !slices.Contains(d.Failed, col) {
		return fmt.Errorf("disk %d is not failed", col)
	}
	_, colSize, err := d.geometry()
	if err != nil {
		return err
	}
	return os.WriteFile(ImagePath(dir, col), make([]byte, colSize), 0o644)
}
