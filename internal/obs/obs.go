// Package obs is the run-scoped observability subsystem of the simulator:
// a lightweight metrics registry (counters, gauges, log2-bucket
// histograms) with an allocation-free hot path, and a structured event
// tracer whose JSONL sink records fault/alloc/lock/unlock/swap/phase
// events with virtual-time stamps so a simulation run can be replayed and
// audited offline.
//
// Everything is opt-in: a nil *Observer (or an Observer with neither a
// Tracer nor a Metrics registry) costs a single pointer comparison in the
// simulator, so instrumentation-off runs pay ~nothing.
//
// The package deliberately has no dependencies on the simulator packages —
// vmsim, policy and the CLI all depend on obs, never the reverse.
package obs

// Gate dynamically enables or disables an observer. It exists for
// attach-and-forget observation endpoints (the live telemetry server):
// the tracer and registry stay wired for the whole process lifetime, but
// while the gate reports closed the simulator treats the observer as
// disabled and runs its un-instrumented fast path. Open is consulted
// once per simulation run, never per reference, so implementations may
// take locks or read clocks.
type Gate interface {
	Open() bool
}

// ProgressFunc receives periodic in-run progress: done trace positions
// out of total (the unit — events or references — depends on the
// simulation path, so consume the ratio, not the absolute), and the
// virtual time reached. It is invoked from the simulation loop every few
// tens of thousands of references and once more at run end with
// done == total; implementations must be cheap and must not block.
type ProgressFunc func(done, total int, vt int64)

// Observer bundles the observation channels of one simulation run.
// Any field may be nil; a nil Observer observes nothing.
type Observer struct {
	// Tracer receives structured events as the run progresses.
	Tracer Tracer
	// Metrics receives counters, gauges and histograms.
	Metrics *Registry
	// Gate, when non-nil, can disable the tracer and metrics without
	// detaching them: while Gate.Open() is false the observer reports
	// not-Enabled and simulations take the fast path. Progress callbacks
	// are not gated — they are cheap enough to stay on.
	Gate Gate
	// Progress, when non-nil, receives periodic in-run progress even
	// when the rest of the observer is disabled (or the gate is closed);
	// the fast path delivers it from a chunked outer loop at zero
	// per-reference cost.
	Progress ProgressFunc
}

// Enabled reports whether the observer's tracer/metrics channels are
// live: at least one of them attached, and the gate (if any) open.
func (o *Observer) Enabled() bool {
	if o == nil || (o.Tracer == nil && o.Metrics == nil) {
		return false
	}
	return o.Gate == nil || o.Gate.Open()
}

// ProgressOf returns o's progress callback, tolerating a nil observer.
func ProgressOf(o *Observer) ProgressFunc {
	if o == nil {
		return nil
	}
	return o.Progress
}

// Emit forwards an event to the tracer, if any. Safe on a nil Observer.
func (o *Observer) Emit(e Event) {
	if o != nil && o.Tracer != nil {
		o.Tracer.Emit(e)
	}
}
