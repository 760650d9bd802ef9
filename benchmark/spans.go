package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records its own spans, from the benchmark's files, around
// the calls into each layer: op around each call into the array or the
// Remote, backend around the server's call into the array, dev around each
// call into a column. Spans stay in memory until the run ends. With one
// caller at most one op is in flight, so the op a span belongs to is the one
// in flight when it is recorded, and a dev span's parent is that op's backend
// span when there is one, else the op span itself.

type spanLayer uint8

const (
	layerOp spanLayer = iota
	layerBackend
	layerDev
)

func (l spanLayer) String() string { return [...]string{"op", "backend", "dev"}[l] }

type span struct {
	layer      spanLayer
	kind       opKind
	col        int   // dev spans: the column; −1 otherwise
	op         int32 // id of the op this span belongs to
	start, end int64 // nanoseconds since the recorder's epoch
	bytes      int64
}

type recorder struct {
	epoch time.Time
	on    atomic.Bool  // off during set-up and readback: only the pass is traced
	cur   atomic.Int32 // the op in flight
	mu    sync.Mutex   // dev spans arrive from the array's fan-out goroutines
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a span of the op in flight that began at start and ends now.
func (r *recorder) add(layer spanLayer, kind opKind, col int, start time.Time, bytes int) {
	if !r.on.Load() {
		return
	}
	end := time.Since(r.epoch)
	sp := span{layer: layer, kind: kind, col: col, op: r.cur.Load(),
		start: int64(start.Sub(r.epoch)), end: int64(end), bytes: int64(bytes)}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// addOp records the op span of a finished step under a new op id and makes
// the next id current. Device spans were stamped with the id while the call
// ran.
func (r *recorder) addOp(res stepResult) {
	start := int64(res.start.Sub(r.epoch))
	sp := span{layer: layerOp, kind: res.kind, col: -1, op: r.cur.Load(),
		start: start, end: start + int64(res.dur), bytes: int64(res.bytes)}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	r.cur.Add(1)
}

// opAccount is where one op's time went.
type opAccount struct {
	kind      opKind
	op        int64 // the op span
	backend   int64 // the server-side span, 0 when the op never crossed the wire
	devBusy   int64 // union of its device spans
	devCalls  int
	devBytes  int64
	userBytes int64
}

// self is the raid layer's own time: the innermost span around the array
// call minus the part of it the devices cover.
func (a opAccount) self() int64 {
	if a.backend > 0 {
		return a.backend - a.devBusy
	}
	return a.op - a.devBusy
}

// account groups spans by op. Spans recorded outside any op span (the fill)
// are dropped.
func account(spans []span) []opAccount {
	byOp := map[int32]*opAccount{}
	ivs := map[int32][]interval{}
	for _, sp := range spans {
		if sp.layer != layerOp {
			continue
		}
		byOp[sp.op] = &opAccount{kind: sp.kind, op: sp.end - sp.start, userBytes: sp.bytes}
	}
	for _, sp := range spans {
		a := byOp[sp.op]
		if a == nil {
			continue
		}
		switch sp.layer {
		case layerBackend:
			a.backend += sp.end - sp.start
		case layerDev:
			a.devCalls++
			a.devBytes += sp.bytes
			ivs[sp.op] = append(ivs[sp.op], interval{sp.start, sp.end})
		}
	}
	ids := make([]int32, 0, len(byOp))
	for id := range byOp {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]opAccount, 0, len(ids))
	for _, id := range ids {
		a := byOp[id]
		a.devBusy = unionLen(ivs[id])
		out = append(out, *a)
	}
	return out
}

// p50of returns the median of f over the accounts that pass keep, in
// microseconds, and how many there were.
func p50of(accts []opAccount, keep func(opAccount) bool, f func(opAccount) int64) (float64, int) {
	var vs []int64
	for _, a := range accts {
		if keep(a) {
			vs = append(vs, f(a))
		}
	}
	if len(vs) == 0 {
		return 0, 0
	}
	slices.Sort(vs)
	return us(float64(percentile(vs, 0.5))), len(vs)
}

// medianBand returns the accounts, among those keep passes, whose op span
// lies between the 45th and the 55th percentile: the ops a median op time is
// made of. Layer times are averaged over this band, so that they add up to
// the median op — medians taken layer by layer do not — and stay as deaf to
// the slow tail as a median is.
func medianBand(accts []opAccount, keep func(opAccount) bool) []opAccount {
	var kept []opAccount
	for _, a := range accts {
		if keep(a) {
			kept = append(kept, a)
		}
	}
	slices.SortFunc(kept, func(a, b opAccount) int { return cmp.Compare(a.op, b.op) })
	lo, hi := len(kept)*45/100, (len(kept)*55+99)/100
	return kept[lo:min(max(hi, lo+1), len(kept))]
}

// meanUs is the mean of f over accts in microseconds; 0 for none.
func meanUs(accts []opAccount, f func(opAccount) int64) float64 {
	if len(accts) == 0 {
		return 0
	}
	var sum int64
	for _, a := range accts {
		sum += f(a)
	}
	return us(float64(sum) / float64(len(accts)))
}

// writeSpans writes the spans as JSON lines: layer, the layer of the span
// that caused it, kind, column, op id, start and end in nanoseconds, bytes.
func writeSpans(path string, spans []span) (err error) {
	served := map[int32]bool{} // ops with a backend span
	for _, sp := range spans {
		if sp.layer == layerBackend {
			served[sp.op] = true
		}
	}
	parent := func(sp span) string {
		switch {
		case sp.layer == layerDev && served[sp.op]:
			return layerBackend.String()
		case sp.layer != layerOp:
			return layerOp.String()
		}
		return ""
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		err := enc.Encode(struct {
			Layer  string `json:"layer"`
			Parent string `json:"parent,omitempty"`
			Kind   string `json:"kind"`
			Col    int    `json:"col"`
			Op     int32  `json:"op"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Bytes  int64  `json:"bytes"`
		}{sp.layer.String(), parent(sp), sp.kind.String(), sp.col, sp.op, sp.start, sp.end, sp.bytes})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
