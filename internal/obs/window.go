package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// LoadWindow is the live, windowed counterpart of LoadSnapshot: per-disk access
// counts over a rolling time window, kept as a ring of fixed-duration slots
// with separate read and write cells. It computes the paper's load-balancing
// factor LF = Lmax/Lmin (Eq. 8) over the recent window rather than over the
// array's whole lifetime — the view that makes RDP's parity-disk hotspot
// visible while it is happening — and flags hot disks whose share of the
// window's load exceeds a configurable factor of the per-disk mean.
//
// Recording is lock-free on the hot path: one atomic load and one atomic add,
// on a timestamp the caller already holds. Slot rotation (crossing into a new
// time slot) takes a mutex, but only the single op that first observes the new
// slot pays it.
// Counts are approximate at slot boundaries — a laggard recorder can land an
// op in a slot being recycled — which is acceptable for a monitoring view.
//
// LoadWindow must not be copied after first use.
type LoadWindow struct {
	disks     int
	slots     int
	slotNanos int64
	start     int64 // construction time, a Mono reading

	hotFactor atomic.Uint64 // math.Float64bits

	cur   atomic.Int64 // latest absolute slot index observed
	rotMu sync.Mutex   // serializes slot recycling only

	reads  []Counter // slots×disks, row-major by slot
	writes []Counter
}

// DefaultHotFactor flags a disk as hot when its share of the window's load
// exceeds this multiple of the per-disk mean.
const DefaultHotFactor = 1.5

// NewLoadWindow returns a window over `disks` lanes covering slots×slotDur
// of history. Non-positive slots or slotDur take 60 slots of one second.
func NewLoadWindow(disks, slots int, slotDur time.Duration) *LoadWindow {
	if slots <= 0 {
		slots = 60
	}
	if slotDur <= 0 {
		slotDur = time.Second
	}
	w := &LoadWindow{
		disks:     disks,
		slots:     slots,
		slotNanos: int64(slotDur),
		start:     Mono(),
		reads:     make([]Counter, slots*disks),
		writes:    make([]Counter, slots*disks),
	}
	w.hotFactor.Store(math.Float64bits(DefaultHotFactor))
	return w
}

// SetHotFactor changes the hot-disk threshold; f ≤ 1 disables detection
// (every disk trivially exceeds ≤1× the mean on a one-disk array, and a
// factor at or below the mean is not a hotspot definition).
func (w *LoadWindow) SetHotFactor(f float64) { w.hotFactor.Store(math.Float64bits(f)) }

// Disks returns the number of lanes.
func (w *LoadWindow) Disks() int { return w.disks }

// slotAt maps a Mono timestamp to an absolute slot index.
func (w *LoadWindow) slotAt(now int64) int64 {
	s := (now - w.start) / w.slotNanos
	if s < 0 {
		s = 0
	}
	return s
}

// advance recycles slot rows between the last observed slot and `slot`.
func (w *LoadWindow) advance(slot int64) {
	w.rotMu.Lock()
	defer w.rotMu.Unlock()
	cur := w.cur.Load()
	if slot <= cur {
		return // another recorder already rotated
	}
	lo := cur + 1
	if slot-lo >= int64(w.slots) {
		lo = slot - int64(w.slots) + 1 // everything aged out; clear one lap
	}
	for s := lo; s <= slot; s++ {
		row := int(s%int64(w.slots)) * w.disks
		for i := row; i < row+w.disks; i++ {
			w.reads[i].Reset()
			w.writes[i].Reset()
		}
	}
	w.cur.Store(slot)
}

// Record tallies n accesses on disk i that completed at now, a Mono reading;
// write selects the write cell. The caller supplies the timestamp it already
// took for its latency measurement, so recording costs no clock read. Being
// monotonic, the stamp cannot file a record into an aged slot or rotate the
// window away when the wall clock steps.
func (w *LoadWindow) Record(i int, write bool, n int64, now int64) {
	if w == nil {
		return
	}
	slot := w.slotAt(now)
	if slot > w.cur.Load() {
		w.advance(slot)
	}
	idx := int(slot%int64(w.slots))*w.disks + i
	if write {
		w.writes[idx].Add(n)
	} else {
		w.reads[idx].Add(n)
	}
}

// Reset clears every slot (quiescent writers only, like Counter.Reset).
func (w *LoadWindow) Reset() {
	w.rotMu.Lock()
	defer w.rotMu.Unlock()
	for i := range w.reads {
		w.reads[i].Reset()
		w.writes[i].Reset()
	}
}

// WindowSnapshot is the JSON-friendly view of a LoadWindow: per-disk read
// and write counts over the covered window, the combined per-disk load with
// its live LF and CV (reusing LoadSnapshot semantics: LF is -1 when a disk
// was idle while others worked), access rates, and the hot-disk list.
type WindowSnapshot struct {
	WindowNanos int64   `json:"window_ns"` // time actually covered
	SlotNanos   int64   `json:"slot_ns"`
	Reads       []int64 `json:"reads_per_disk"`
	Writes      []int64 `json:"writes_per_disk"`

	// Load combines reads+writes per disk; Load.LF is the live load-balancing
	// factor over the window.
	Load LoadSnapshot `json:"load"`

	ReadsPerSec  float64 `json:"reads_per_sec"`
	WritesPerSec float64 `json:"writes_per_sec"`

	// HotDisks lists disks whose combined load exceeds HotFactor× the
	// per-disk mean of the window.
	HotDisks  []int   `json:"hot_disks,omitempty"`
	HotFactor float64 `json:"hot_factor"`
}

// Snapshot captures the rolling window. It first advances rotation so slots
// that aged out since the last Record don't linger in the view.
func (w *LoadWindow) Snapshot() WindowSnapshot { return w.snapshotAt(Mono()) }

// snapshotAt is Snapshot as of the Mono reading now.
func (w *LoadWindow) snapshotAt(now int64) WindowSnapshot {
	slot := w.slotAt(now)
	if slot > w.cur.Load() {
		w.advance(slot)
	}
	covered := slot + 1
	if covered > int64(w.slots) {
		covered = int64(w.slots)
	}
	s := WindowSnapshot{
		SlotNanos: w.slotNanos,
		Reads:     make([]int64, w.disks),
		Writes:    make([]int64, w.disks),
		Load:      LoadSnapshot{PerDisk: make([]int64, w.disks)},
		HotFactor: math.Float64frombits(w.hotFactor.Load()),
	}
	// Covered time: full aged slots plus the elapsed part of the current one.
	s.WindowNanos = (covered-1)*w.slotNanos + (now-w.start)%w.slotNanos
	for off := int64(0); off < covered; off++ {
		row := int((slot-off)%int64(w.slots)) * w.disks
		for d := 0; d < w.disks; d++ {
			s.Reads[d] += w.reads[row+d].Load()
			s.Writes[d] += w.writes[row+d].Load()
		}
	}
	for d := 0; d < w.disks; d++ {
		s.Load.PerDisk[d] = s.Reads[d] + s.Writes[d]
	}
	s.Load.Recompute()
	if sec := float64(s.WindowNanos) / 1e9; sec > 0 {
		var r, wr int64
		for d := 0; d < w.disks; d++ {
			r += s.Reads[d]
			wr += s.Writes[d]
		}
		s.ReadsPerSec = float64(r) / sec
		s.WritesPerSec = float64(wr) / sec
	}
	s.refreshHot()
	return s
}

// refreshHot rederives HotDisks from Load.PerDisk and HotFactor.
func (s *WindowSnapshot) refreshHot() {
	s.HotDisks = nil
	n := len(s.Load.PerDisk)
	if s.HotFactor <= 1 || n < 2 || s.Load.Total == 0 {
		return
	}
	mean := float64(s.Load.Total) / float64(n)
	for d, v := range s.Load.PerDisk {
		if float64(v) > s.HotFactor*mean {
			s.HotDisks = append(s.HotDisks, d)
		}
	}
}
