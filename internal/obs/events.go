package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Flight recorder: a lock-free ring of structured events that answers "what
// was the system doing just before X" without logs. Producers (the raid
// layer, blockdev.Remote, blockserve) record rare-but-load-bearing moments —
// a disk declared failed, a rebuild starting, a remote retry, admission
// saturation — each carrying the trace ID of the operation that hit it, so an
// event cross-references straight into the span rings the tracing subsystem
// keeps.
//
// Recording follows the trace ring's discipline: a ticket fetch plus atomic
// stores into a seqlock-published slot, no locks, no allocation. A nil
// *Recorder is valid and records nothing (one nil check per call site), so
// the disabled path stays off the allocation and time-syscall budget — the
// engine's 0 allocs/op pins hold with event hooks compiled in.
//
// Retention has the same problem the tracer's slow-op ring solves: after a
// column dies, degraded-read entries arrive orders of magnitude faster than
// lifecycle events, and a single ring would evict the one DiskFailed record
// the postmortem needs. Critical kinds are therefore mirrored into a second,
// small ring that only they churn; Events merges both, deduplicating by
// ticket.

// EventKind classifies a flight-recorder event.
type EventKind uint8

// Event kinds. The "critical" ones (see critical) survive high-frequency
// churn in a dedicated ring.
const (
	EvNone EventKind = iota
	EvDiskFailed
	EvRebuildStart
	EvRebuildEnd
	EvScrubStart
	EvScrubEnd
	EvRemoteRetry
	EvSemSaturated
	EvDegradedRead
	EvPanic
)

var eventNames = [...]string{
	EvNone:         "none",
	EvDiskFailed:   "disk_failed",
	EvRebuildStart: "rebuild_start",
	EvRebuildEnd:   "rebuild_end",
	EvScrubStart:   "scrub_start",
	EvScrubEnd:     "scrub_end",
	EvRemoteRetry:  "remote_retry",
	EvSemSaturated: "sem_saturated",
	EvDegradedRead: "degraded_read",
	EvPanic:        "panic",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name, so event dumps are greppable and
// raidctl can assert on kinds without sharing enum values.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts a kind name (or a bare number for forward
// compatibility with kinds this build does not know).
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for i, name := range eventNames {
			if name == s {
				*k = EventKind(i)
				return nil
			}
		}
		*k = EvNone
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*k = EventKind(n)
	return nil
}

// critical reports whether k is mirrored into the retention ring.
func (k EventKind) critical() bool {
	switch k {
	case EvDiskFailed, EvRebuildStart, EvRebuildEnd, EvScrubStart, EvScrubEnd, EvPanic:
		return true
	}
	return false
}

// Event is one recorded moment. Disk is -1 when not bound to a column,
// Stripe -1 when not bound to a stripe. Trace is the trace ID of the
// operation that was in flight (0 when none was available). Aux is
// kind-specific: the retry attempt for remote_retry, the duration in
// nanoseconds for *_end kinds.
type Event struct {
	Seq    uint64    `json:"seq"`
	TimeNs int64     `json:"time_ns"`
	Kind   EventKind `json:"kind"`
	Disk   int32     `json:"disk"`
	Stripe int64     `json:"stripe"`
	Trace  uint64    `json:"trace,omitempty"`
	Aux    int64     `json:"aux,omitempty"`
}

// eslot is one seqlock-published event slot; see trace/ring.go for the
// publication protocol the reader side relies on.
type eslot struct {
	seq    atomic.Uint64 // 0 empty; odd: writing; even: (ticket+1)<<1
	gseq   atomic.Uint64 // recorder-global ticket: identical across rings
	time   atomic.Int64
	meta   atomic.Uint64 // kind | disk<<8
	stripe atomic.Int64
	trace  atomic.Uint64
	aux    atomic.Int64
}

func (s *eslot) store(ticket, gseq uint64, timeNs int64, kind EventKind, disk int32, stripe int64, traceID uint64, aux int64) {
	s.seq.Store(ticket<<1 | 1)
	s.gseq.Store(gseq)
	s.time.Store(timeNs)
	s.meta.Store(uint64(kind) | uint64(uint32(disk))<<8)
	s.stripe.Store(stripe)
	s.trace.Store(traceID)
	s.aux.Store(aux)
	s.seq.Store((ticket + 1) << 1)
}

func (s *eslot) load(ticket uint64) (Event, bool) {
	want := (ticket + 1) << 1
	if s.seq.Load() != want {
		return Event{}, false
	}
	m := s.meta.Load()
	ev := Event{
		Seq:    s.gseq.Load(),
		TimeNs: s.time.Load(),
		Kind:   EventKind(m & 0xff),
		Disk:   int32(uint32(m >> 8)),
		Stripe: s.stripe.Load(),
		Trace:  s.trace.Load(),
		Aux:    s.aux.Load(),
	}
	if s.seq.Load() != want {
		return Event{}, false
	}
	return ev, true
}

// eventRing is one ticketed slot array; capacity is a power of two.
type eventRing struct {
	mask  uint64
	head  atomic.Uint64
	slots []eslot
}

func newEventRing(capacity int) *eventRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &eventRing{mask: uint64(n - 1), slots: make([]eslot, n)}
}

func (r *eventRing) put(gseq uint64, timeNs int64, kind EventKind, disk int32, stripe int64, traceID uint64, aux int64) {
	ticket := r.head.Add(1) - 1
	r.slots[ticket&r.mask].store(ticket, gseq, timeNs, kind, disk, stripe, traceID, aux)
}

func (r *eventRing) drain(out []Event) []Event {
	head := r.head.Load()
	n := uint64(len(r.slots))
	if head < n {
		n = head
	}
	for ticket := head - n; ticket < head; ticket++ {
		if ev, ok := r.slots[ticket&r.mask].load(ticket); ok {
			out = append(out, ev)
		}
	}
	return out
}

// DefaultEventCapacity sizes NewRecorder's main ring when the caller passes
// a non-positive capacity; the critical ring is fixed and small.
const (
	DefaultEventCapacity = 1024
	criticalEventRing    = 64
)

// Recorder is the flight recorder. The nil *Recorder is a valid, permanently
// disabled recorder — every method no-ops — so producers hold plain fields
// and skip the nil check cost only. Recorder must not be copied.
type Recorder struct {
	ring *eventRing
	crit *eventRing
	seq  atomic.Uint64 // global ticket: total events recorded, orders merges
}

// NewRecorder returns a Recorder retaining the last capacity events (plus a
// fixed side ring for critical kinds); non-positive capacity takes the
// default.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &Recorder{ring: newEventRing(capacity), crit: newEventRing(criticalEventRing)}
}

// Record adds one event. Safe on a nil Recorder (no-op) and from any
// goroutine; it never blocks and never allocates.
func (r *Recorder) Record(kind EventKind, disk int32, stripe int64, traceID uint64, aux int64) {
	if r == nil {
		return
	}
	// One global ticket per event, stamped into both rings, so the merge in
	// Events can recognize a critical event it sees twice.
	seq := r.seq.Add(1)
	now := time.Now().UnixNano()
	r.ring.put(seq, now, kind, disk, stripe, traceID, aux)
	if kind.critical() {
		r.crit.put(seq, now, kind, disk, stripe, traceID, aux)
	}
}

// Recorded returns the total number of events ever recorded.
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	return int64(r.seq.Load())
}

// Events returns the retained events, oldest first. Critical kinds may
// outlive the main ring's churn (they are mirrored into a dedicated ring);
// a critical event present in both rings appears once.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	main := r.ring.drain(nil)
	crit := r.crit.drain(nil)
	// Dedup by global ticket: a critical event still in the main ring is in
	// both drains under the same Seq.
	seen := make(map[uint64]bool, len(main))
	out := make([]Event, 0, len(main)+len(crit))
	for _, ev := range main {
		seen[ev.Seq] = true
		out = append(out, ev)
	}
	for _, ev := range crit {
		if !seen[ev.Seq] {
			out = append(out, ev)
		}
	}
	sortEvents(out)
	return out
}

func sortEvents(evs []Event) {
	// Insertion sort by time: both drains are already near-sorted and event
	// counts are ring-bounded, so this stays cheap without pulling in sort.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && less(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

func less(a, b Event) bool {
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.TimeNs < b.TimeNs
}

// Dump writes the retained events to w as text, one line per event — the
// panic path's last words, so it must not allocate surprisingly or fail
// halfway silently. Best effort: write errors stop the dump.
func (r *Recorder) Dump(w io.Writer) {
	if r == nil {
		return
	}
	evs := r.Events()
	for _, ev := range evs {
		var err error
		if ev.Trace != 0 {
			_, err = fmt.Fprintf(w, "%d %s disk=%d stripe=%d trace=%016x aux=%d\n",
				ev.TimeNs, ev.Kind, ev.Disk, ev.Stripe, ev.Trace, ev.Aux)
		} else {
			_, err = fmt.Fprintf(w, "%d %s disk=%d stripe=%d aux=%d\n",
				ev.TimeNs, ev.Kind, ev.Disk, ev.Stripe, ev.Aux)
		}
		if err != nil {
			return
		}
	}
}

// EventsDump is the JSON document raidserve's /events endpoint serves and
// raidctl events consumes.
type EventsDump struct {
	Node     string  `json:"node"`
	TimeNs   int64   `json:"time_ns"`
	Recorded int64   `json:"recorded"`
	Events   []Event `json:"events"`
}
