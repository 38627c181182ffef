// Package engine is the concurrent run-plan executor sitting between the
// simulator core (vmsim, policy, workloads) and everything that drives
// whole experiment grids (experiments, report, the CLI). Callers declare
// a set of independent runs — MapNamed over a slice of run descriptors —
// and the engine executes them on a bounded worker pool, memoizing shared
// prerequisites (LRU/WS sweeps, CD policy runs) with singleflight
// semantics so each expensive artifact is computed exactly once per
// engine however many runs request it. Artifacts are keyed by the
// *trace.Trace they are computed from, so registered workloads, program
// files, recompiled page sizes and generated programs share one store;
// callers compile and pass the trace.
//
// Determinism is the engine's contract: results are gathered in
// declaration order, memo keys are composite (trace, set, parameters),
// and observability events are buffered per run and merged in
// declaration order — so tables, reports and JSONL event streams are
// byte-identical at any parallelism level, including one worker, which
// degenerates to a plain sequential loop with no goroutines at all.
//
// The package keeps no process-wide engine: every caller constructs one
// with New and passes it explicitly.
package engine

import (
	"log/slog"
	"runtime"
	"sync"
	"time"

	"cdmm/internal/obs"
	"cdmm/internal/vmsim"
)

// Engine executes declared runs on a bounded worker pool and memoizes
// their shared prerequisites. The zero value is not usable; construct
// with New. An Engine is safe for concurrent use; when an event tracer
// is attached, whole MapNamed plans are additionally serialized (planMu)
// so two simultaneous plans can never interleave their merged streams or
// race over which plan a shared memoized computation's events flush
// into — the stream layout is a function of the plans alone. The cost
// is that a run body must not call MapNamed on its own engine (it would
// self-deadlock); nest through Memo instead.
type Engine struct {
	workers int
	// obs, when non-nil, is the base observer for every run the engine
	// executes.
	obs *obs.Observer

	memo memo

	// flushMu serializes merged event emission into the base tracer.
	flushMu sync.Mutex
	// planMu serializes entire MapNamed plans while a tracer is attached,
	// keeping each plan's merged stream contiguous and memo flushes
	// deterministic (see the type comment).
	planMu sync.Mutex

	// progress, when non-nil, tracks plan and run lifecycle for live
	// status endpoints (/progress); it costs one lock-free callback per
	// progressChunk simulated events while runs are in flight.
	progress *Progress
	// log, when non-nil, receives structured lifecycle records (plan
	// start/end, failures).
	log *slog.Logger

	// cellMode forces the per-cell replay path for sweep artifacts: every
	// curve point is an independent full-trace simulation instead of a
	// point on a one-pass curve. The differential oracle.
	cellMode bool
}

// New returns an engine running at most workers simulations at once.
// workers <= 0 means GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, memo: memo{m: map[Key]*memoEntry{}}}
}

// WithObserver sets the engine's base observer and returns the engine.
// Runs observe nothing without one. Call before MapNamed.
func (e *Engine) WithObserver(o *obs.Observer) *Engine {
	e.obs = o
	return e
}

// WithProgress attaches a lifecycle tracker: every MapNamed plan and run
// the engine executes is registered with p, including live in-run trace
// position via the simulator's chunked progress callbacks. One tracker
// may be shared by several engines. Call before MapNamed.
func (e *Engine) WithProgress(p *Progress) *Engine {
	e.progress = p
	return e
}

// WithLogger attaches a structured logger for plan/run lifecycle
// records; nil (the default) logs nothing. Call before MapNamed.
func (e *Engine) WithLogger(l *slog.Logger) *Engine {
	e.log = l
	return e
}

// WithCellMode selects how sweep artifacts (LRU curves, WS runs and
// minima, CD detune grids) are computed: false (the default) uses the
// one-pass curve engines in internal/sweep, true replays the trace per
// curve point through vmsim — the differential oracle. An engine holds
// one mode's artifacts, so call before MapNamed.
func (e *Engine) WithCellMode(cell bool) *Engine {
	e.cellMode = cell
	return e
}

// RunCtx is handed to every run a MapNamed executes. It carries the
// run's observer (nil when the engine observes nothing) and records which
// memo keys the run requested, so the engine can merge memoized runs'
// event buffers deterministically.
type RunCtx struct {
	// Index is the run's position in the declared plan.
	Index int
	// Obs is the run's private observer: a per-run event buffer plus the
	// shared (atomic) metrics registry. Pass it to vmsim.RunObserved and
	// friends; never write to a shared sink directly from inside a run.
	Obs *obs.Observer

	eng *Engine
	buf *obs.Collector
	// progressID is the run's id in the engine's Progress tracker, -1
	// when untracked (no tracker attached, or a Memo computation ctx).
	progressID int
	keys       []Key
}

// Describe attaches a human-readable label and policy name to the run's
// entry in the engine's Progress tracker, so live status endpoints show
// "table1/CONDUCT CD" rather than a bare plan index. No-op when the
// engine tracks nothing.
func (rc *RunCtx) Describe(label, policyName string) {
	if rc == nil || rc.eng == nil || rc.eng.progress == nil || rc.progressID < 0 {
		return
	}
	rc.eng.progress.describe(rc.progressID, label, policyName)
}

// Report stores a simulation result on the run's Progress entry ahead of
// plan completion. Run bodies whose return type is not vmsim.Result
// (table cells, comparison rows) call this so drill-down endpoints still
// see PF/MEM/ST. No-op when the engine tracks nothing.
func (rc *RunCtx) Report(res vmsim.Result) {
	if rc == nil || rc.eng == nil || rc.eng.progress == nil || rc.progressID < 0 {
		return
	}
	rc.eng.progress.report(rc.progressID, res)
}

// newRunCtx builds the per-run context. When the base observer has a
// tracer, the run gets a private buffer so parallel runs never contend
// on (or nondeterministically interleave into) the shared sink. runID is
// the run's Progress id (-1 when untracked); a tracked run always
// carries a progress callback, even when the base observer is disabled —
// that combination is the gated fast path with live position updates.
func (e *Engine) newRunCtx(index int, base *obs.Observer, runID int) *RunCtx {
	rc := &RunCtx{Index: index, eng: e, progressID: -1}
	var prog obs.ProgressFunc
	if e.progress != nil && runID >= 0 {
		prog = e.progress.runProgressFn(runID)
		rc.progressID = runID
	}
	if !base.Enabled() {
		if prog != nil {
			rc.Obs = &obs.Observer{Progress: prog}
		}
		return rc
	}
	o := &obs.Observer{Metrics: base.Metrics, Progress: prog}
	if base.Tracer != nil {
		rc.buf = &obs.Collector{}
		o.Tracer = rc.buf
	}
	rc.Obs = o
	return rc
}

// MapNamed executes fn over every item on the engine's worker pool and
// returns the results in declaration order. Every item is attempted —
// an error in one run never skips another, so the failure set is a
// function of the plan alone — and all failures are aggregated into a
// *PlanError ordered by declaration index: the identical error value at
// any parallelism level. With one worker the plan runs inline, in
// order, with no goroutines — the overhead-guard path.
//
// label names the plan in the engine's Progress tracker and logs
// ("table1", "chaos", ...; "" gets an auto-generated label). While an
// event tracer is attached the whole plan additionally holds the
// engine's plan lock, so simultaneous plans produce contiguous,
// deterministically ordered merged streams (and must not nest — see the
// Engine doc).
func MapNamed[T, R any](e *Engine, label string, items []T, fn func(*RunCtx, T) (R, error)) ([]R, error) {
	base := e.obs
	if base != nil && base.Tracer != nil {
		e.planMu.Lock()
		defer e.planMu.Unlock()
	}
	n := len(items)

	baseRunID := -1
	if e.progress != nil {
		var planID int
		planID, baseRunID = e.progress.startPlan(label, n)
		defer e.progress.finishPlan(planID)
	}
	if e.log != nil {
		e.log.Info("plan start", "plan", label, "runs", n, "workers", e.workers)
		start := time.Now()
		defer func() {
			e.log.Info("plan done", "plan", label, "runs", n, "wall", time.Since(start))
		}()
	}
	runID := func(i int) int {
		if baseRunID < 0 {
			return -1
		}
		return baseRunID + i
	}

	results := make([]R, n)
	errs := make([]error, n)
	ctxs := make([]*RunCtx, n)

	if e.workers <= 1 || n <= 1 {
		for i, item := range items {
			results[i], ctxs[i], errs[i] = runOne(e, base, i, runID(i), item, fn)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, e.workers)
		for i := range items {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer func() {
					<-sem
					wg.Done()
				}()
				results[i], ctxs[i], errs[i] = runOne(e, base, i, runID(i), items[i], fn)
			}(i)
		}
		wg.Wait()
	}
	e.mergeEvents(base, ctxs)

	var failed []*RunError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &RunError{Index: i, Err: err})
		}
	}
	if len(failed) > 0 {
		if e.log != nil {
			e.log.Error("plan failed", "plan", label, "failed", len(failed), "of", n)
		}
		return nil, &PlanError{Runs: failed}
	}
	return results, nil
}

// runOne executes one run. Its lifecycle (running, then terminal) is
// mirrored into the engine's Progress tracker under runID when one is
// attached.
func runOne[T, R any](e *Engine, base *obs.Observer, i, runID int, item T, fn func(*RunCtx, T) (R, error)) (R, *RunCtx, error) {
	p := e.progress
	if runID < 0 {
		p = nil
	}
	rc := e.newRunCtx(i, base, runID)
	if p != nil {
		p.runStart(runID)
	}
	res, err := fn(rc, item)
	if p != nil {
		p.runFinish(runID, any(res), err)
	}
	if err != nil && e.log != nil {
		e.log.Error("run failed", "run", i, "err", err)
	}
	return res, rc, err
}

// mergeEvents flushes buffered events into the base tracer in
// declaration order: for each run, first the buffers of the memoized
// computations it was the earliest-declared requester of (in request
// order — deterministic because run bodies are sequential), then the
// run's own events. At any parallelism this yields the same stream.
func (e *Engine) mergeEvents(base *obs.Observer, ctxs []*RunCtx) {
	if base == nil || base.Tracer == nil {
		return
	}
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	for _, rc := range ctxs {
		if rc == nil {
			continue
		}
		for _, k := range rc.keys {
			e.memo.flush(k, base.Tracer)
		}
		if rc.buf != nil {
			for _, ev := range rc.buf.Events {
				base.Tracer.Emit(ev)
			}
		}
	}
}
