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
//     a rolling per-disk read/write tally by devIO, so Snapshot carries the paper's LF metric computed live over the
//     recent window (60 one-second slots), plus hot-disk detection.

import (
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

// LoadWindow returns the array's live per-disk load tracker.
func (a *Array) LoadWindow() *obs.LoadWindow { return a.window }

// initObservability finishes the observability wiring once options have run:
// the default tracer and the load window devIO feeds.
func (a *Array) initObservability() {
	if a.tr == nil {
		a.tr = trace.Nop
	}
	a.window = obs.NewLoadWindow(a.code.Cols(), 0, 0)
}

// TraceSnapshot is the tracer's contribution to Snapshot: the ring counters
// plus the retained slow-op captures (raidctl top's slow-op log).
type TraceSnapshot struct {
	trace.Stats
	SlowSpans []trace.Span `json:"slow_spans,omitempty"`
}
