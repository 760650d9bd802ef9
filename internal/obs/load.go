package obs

import "math"

// LoadTally counts accesses per disk (or any other fixed set of lanes) with
// one lock-free cell per lane. It is the live-engine analogue of the
// internal/ioload simulator's per-disk counts: the same Lmax/Lmin
// load-balancing factor (paper Eq. 8) and, additionally, the coefficient of
// variation, which stays finite when a disk is idle.
type LoadTally struct {
	cells []Counter
}

// NewLoadTally returns a tally over n lanes.
func NewLoadTally(n int) *LoadTally {
	return &LoadTally{cells: make([]Counter, n)}
}

// Add records n accesses on lane i.
func (t *LoadTally) Add(i int, n int64) { t.cells[i].Add(n) }

// Inc records one access on lane i.
func (t *LoadTally) Inc(i int) { t.cells[i].Inc() }

// Len returns the number of lanes.
func (t *LoadTally) Len() int { return len(t.cells) }

// Reset zeroes every lane (quiescent writers only, like Counter.Reset).
func (t *LoadTally) Reset() {
	for i := range t.cells {
		t.cells[i].Reset()
	}
}

// Snapshot captures the per-lane counts and derived balance metrics.
func (t *LoadTally) Snapshot() LoadSnapshot {
	s := LoadSnapshot{PerDisk: make([]int64, len(t.cells))}
	for i := range t.cells {
		s.PerDisk[i] = t.cells[i].Load()
	}
	s.refresh()
	return s
}

// LoadSnapshot is the JSON-friendly view of a LoadTally.
//
// LF is Lmax/Lmin (paper Eq. 8); a lane with zero load makes the true value
// +Inf, which JSON cannot carry, so it is reported as -1 (the paper's figures
// plot it clipped at 30). CV is the population coefficient of variation
// stddev/mean — 0 for a perfectly balanced array, and finite even with idle
// disks, which makes it the better regression metric.
type LoadSnapshot struct {
	PerDisk []int64 `json:"per_disk"`
	Total   int64   `json:"total"`
	LF      float64 `json:"lf"`
	CV      float64 `json:"cv"`
}

// Lmax returns the largest per-lane count.
func (s *LoadSnapshot) Lmax() int64 {
	var m int64
	for _, v := range s.PerDisk {
		if v > m {
			m = v
		}
	}
	return m
}

// Lmin returns the smallest per-lane count (0 for an empty snapshot).
func (s *LoadSnapshot) Lmin() int64 {
	if len(s.PerDisk) == 0 {
		return 0
	}
	m := s.PerDisk[0]
	for _, v := range s.PerDisk[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Recompute rederives Total, LF and CV from PerDisk; callers that assemble a
// snapshot from raw counts (rather than via LoadTally.Snapshot) finish with
// it.
func (s *LoadSnapshot) Recompute() { s.refresh() }

func (s *LoadSnapshot) refresh() {
	s.Total = 0
	for _, v := range s.PerDisk {
		s.Total += v
	}
	if min := s.Lmin(); min > 0 {
		s.LF = float64(s.Lmax()) / float64(min)
	} else if s.Lmax() > 0 {
		s.LF = -1 // +Inf: at least one idle disk while others worked
	} else {
		s.LF = 0
	}
	n := len(s.PerDisk)
	if n == 0 || s.Total == 0 {
		s.CV = 0
		return
	}
	mean := float64(s.Total) / float64(n)
	var ss float64
	for _, v := range s.PerDisk {
		d := float64(v) - mean
		ss += d * d
	}
	s.CV = math.Sqrt(ss/float64(n)) / mean
}

// Merge accumulates another snapshot lane-wise and recomputes the derived
// metrics.
func (s *LoadSnapshot) Merge(o LoadSnapshot) {
	if len(s.PerDisk) < len(o.PerDisk) {
		grown := make([]int64, len(o.PerDisk))
		copy(grown, s.PerDisk)
		s.PerDisk = grown
	}
	for i, v := range o.PerDisk {
		s.PerDisk[i] += v
	}
	s.refresh()
}
