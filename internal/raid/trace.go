package raid

// This file wires the structured tracing subsystem (internal/trace) and the
// windowed per-disk load tracker (obs.LoadWindow) into the array:
//
//   - WithTracer attaches a trace.Tracer; every logical operation opens a
//     span, per-stripe work and coalesced device I/O open child spans (the
//     stripe-task span rides in the pooled opScratch so the device layer
//     can parent to it without threading a context through every call).
//     Without the option the array uses trace.Nop, whose Begin is a single
//     atomic load — the steady-state data path stays allocation-free.
//   - The load window is always on: every device operation is recorded into
//     a rolling per-disk read/write tally via the blockdev.Instrumented op
//     hook, so Snapshot carries the paper's LF metric computed live over the
//     recent window, plus hot-disk detection. WithLoadWindow tunes the
//     window geometry and hot threshold.

import (
	"time"

	"dcode/internal/obs"
	"dcode/internal/trace"
)

// WithTracer attaches tr to the array. The tracer is shared state: callers
// enable/disable it, set the slow-op threshold, and drain spans through it.
// A nil tr keeps the default (permanently disabled) tracer.
func WithTracer(tr *trace.Tracer) Option {
	return func(a *Array) {
		if tr != nil {
			a.tr = tr
		}
	}
}

// Tracer returns the array's tracer (trace.Nop when none was attached).
func (a *Array) Tracer() *trace.Tracer { return a.tr }

// WithLoadWindow configures the live load tracker: slots time slices of
// slotDur each (non-positive values keep the 60×1s default), and hotFactor
// as the hot-disk threshold (multiple of the per-disk mean; ≤ 1 disables
// detection, 0 keeps the default).
func WithLoadWindow(slots int, slotDur time.Duration, hotFactor float64) Option {
	return func(a *Array) {
		a.windowSlots = slots
		a.windowSlotDur = slotDur
		a.windowHotFactor = hotFactor
	}
}

// LoadWindow returns the array's live per-disk load tracker.
func (a *Array) LoadWindow() *obs.LoadWindow { return a.window }

// initObservability finishes the observability wiring once options have run:
// the default tracer, the load window, and the per-device hooks feeding it.
func (a *Array) initObservability() {
	if a.tr == nil {
		a.tr = trace.Nop
	}
	a.window = obs.NewLoadWindow(a.code.Cols(), a.windowSlots, a.windowSlotDur)
	if a.windowHotFactor != 0 {
		a.window.SetHotFactor(a.windowHotFactor)
	}
	for i := range a.iodevs {
		col := i
		a.iodevs[i].SetOpHook(func(write bool, ops, _ int64, end int64) {
			a.window.Record(col, write, ops, end)
		})
	}
}

// TraceSnapshot is the tracer's contribution to Snapshot: the ring counters
// plus the retained slow-op captures (raidctl top's slow-op log).
type TraceSnapshot struct {
	trace.Stats
	SlowSpans []trace.Span `json:"slow_spans,omitempty"`
}
