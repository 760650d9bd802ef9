package obs

import "math"

// LoadSnapshot is a per-disk (or any other fixed set of lanes) access tally,
// the live-engine analogue of the internal/ioload simulator's per-disk
// counts.
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
// snapshot from raw counts finish with it.
func (s *LoadSnapshot) Recompute() {
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
	s.Recompute()
}
