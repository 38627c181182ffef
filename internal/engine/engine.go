// Package engine is the concurrent run-plan executor sitting between the
// simulator core (vmsim, policy, workloads) and everything that drives
// whole experiment grids (experiments, report, the CLI). Callers declare
// a set of independent runs — Map over a slice of run descriptors — and
// the engine executes them on a bounded worker pool, memoizing shared
// prerequisites (compiled workloads, LRU/WS sweeps, CD policy runs) with
// singleflight semantics so each expensive artifact is computed exactly
// once per engine however many runs request it.
//
// Determinism is the engine's contract: results are gathered in
// declaration order, memo keys are composite (program, set, policy,
// parameters), and observability events are buffered per run and merged
// in declaration order — so tables, reports and JSONL event streams are
// byte-identical at any parallelism level, including Workers == 1, which
// degenerates to a plain sequential loop with no goroutines at all.
package engine

import (
	"context"
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
// is attached, whole Map plans are additionally serialized (planMu) so
// two simultaneous plans can never interleave their merged streams or
// race over which plan a shared memoized computation's events flush
// into — the stream layout is a function of the plans alone. The cost
// is that a run body must not call Map on its own engine (it would
// self-deadlock); nest through Memo instead.
type Engine struct {
	workers int
	// obs, when non-nil, is the base observer for every run the engine
	// executes.
	obs *obs.Observer

	memo memo

	// flushMu serializes merged event emission into the base tracer.
	flushMu sync.Mutex
	// planMu serializes entire Map plans while a tracer is attached,
	// keeping each plan's merged stream contiguous and memo flushes
	// deterministic (see the type comment).
	planMu sync.Mutex

	// progress, when non-nil, tracks plan and run lifecycle for live
	// status endpoints (/progress); it costs one lock-free callback per
	// progressChunk simulated events while runs are in flight.
	progress *Progress
	// log, when non-nil, receives structured lifecycle records (plan
	// start/end, retries, failures).
	log *slog.Logger

	// cellMode forces the per-cell replay path for sweep artifacts: every
	// curve point is an independent full-trace simulation instead of a
	// point on a one-pass curve. The differential oracle and the slow leg
	// of `cdmm table* -timing`.
	cellMode bool

	// ctx cancels in-flight plans (nil means context.Background()).
	ctx context.Context
	// retries and backoff bound the retry loop for transient run
	// failures (see Transient); zero retries disables it.
	retries int
	backoff time.Duration
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
// Runs observe nothing without one. Call before Map.
func (e *Engine) WithObserver(o *obs.Observer) *Engine {
	e.obs = o
	return e
}

// WithContext attaches a cancellation context to the engine: once ctx is
// done, runs not yet started fail immediately with ctx.Err() and run
// bodies can observe the cancellation through RunCtx.Ctx. Call before
// Map.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	e.ctx = ctx
	return e
}

// WithProgress attaches a lifecycle tracker: every Map plan and run the
// engine executes is registered with p, including live in-run trace
// position via the simulator's chunked progress callbacks. One tracker
// may be shared by several engines. Call before Map.
func (e *Engine) WithProgress(p *Progress) *Engine {
	e.progress = p
	return e
}

// Progress returns the attached lifecycle tracker (nil when none).
func (e *Engine) Progress() *Progress { return e.progress }

// WithLogger attaches a structured logger for plan/run lifecycle
// records; nil (the default) logs nothing. Call before Map.
func (e *Engine) WithLogger(l *slog.Logger) *Engine {
	e.log = l
	return e
}

// WithRetry makes Map retry a run that fails with a Transient error up
// to retries additional attempts, sleeping backoff, 2×backoff, 4×backoff…
// between attempts (exponential backoff; backoff 0 retries immediately).
// Each attempt runs with a fresh RunCtx, so a failed attempt leaves no
// events or memo-request records behind. Non-transient errors are never
// retried. Call before Map.
func (e *Engine) WithRetry(retries int, backoff time.Duration) *Engine {
	if retries < 0 {
		retries = 0
	}
	e.retries = retries
	e.backoff = backoff
	return e
}

// WithCellMode selects how sweep artifacts (LRU curves, WS runs and
// minima, CD detune grids) are computed: false (the default) uses the
// one-pass curve engines in internal/sweep, true replays the trace per
// curve point through vmsim — the differential oracle. Memo keys carry
// the mode, so one engine can hold both modes' artifacts without
// collision (the -timing comparison does exactly that). Call before Map.
func (e *Engine) WithCellMode(cell bool) *Engine {
	e.cellMode = cell
	return e
}

// CellMode reports whether the engine replays per cell (see WithCellMode).
func (e *Engine) CellMode() bool { return e.cellMode }

// context returns the engine's cancellation context.
func (e *Engine) context() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

var (
	defaultMu  sync.Mutex
	defaultEng *Engine
)

// Default returns the process-wide engine, creating it with GOMAXPROCS
// workers on first use. Package-level conveniences (experiments.CDRun,
// the tables with a nil engine) run through it, sharing one memo store —
// the moral successor of the old global bundle cache, minus the global
// mutex serialization.
func Default() *Engine {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultEng == nil {
		defaultEng = New(0)
	}
	return defaultEng
}

// SetDefault installs e as the process-wide engine (nil resets to a
// fresh GOMAXPROCS engine on next use). The CLI calls this after parsing
// -j so nested helpers pick up the requested parallelism.
func SetDefault(e *Engine) {
	defaultMu.Lock()
	defaultEng = e
	defaultMu.Unlock()
}

// Or returns e, or the default engine when e is nil.
func Or(e *Engine) *Engine {
	if e == nil {
		return Default()
	}
	return e
}

// RunCtx is handed to every run a Map executes. It carries the run's
// observer (nil when the engine observes nothing) and records which memo
// keys the run requested, so the engine can merge memoized runs' event
// buffers deterministically.
type RunCtx struct {
	// Index is the run's position in the declared plan.
	Index int
	// Obs is the run's private observer: a per-run event buffer plus the
	// shared (atomic) metrics registry. Pass it to vmsim.RunObserved and
	// friends; never write to a shared sink directly from inside a run.
	Obs *obs.Observer
	// Ctx is the engine's cancellation context (never nil inside a Map
	// run). Long run bodies should poll it between expensive steps.
	Ctx context.Context

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
	rc := &RunCtx{Index: index, Ctx: e.context(), eng: e, progressID: -1}
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

// Map executes fn over every item on the engine's worker pool and
// returns the results in declaration order. Every item is attempted —
// an error in one run never skips another, so the failure set is a
// function of the plan alone — and all failures are aggregated into a
// *PlanError ordered by declaration index: the identical error value at
// any parallelism level. Transient failures are retried per WithRetry
// before being recorded; a done engine context fails not-yet-started
// runs with ctx.Err(). With Workers() == 1 the plan runs inline, in
// order, with no goroutines — the overhead-guard path.
//
// Map is MapNamed with an auto-generated plan label.
func Map[T, R any](e *Engine, items []T, fn func(*RunCtx, T) (R, error)) ([]R, error) {
	return MapNamed(e, "", items, fn)
}

// MapNamed is Map with an explicit plan label for the engine's Progress
// tracker and logs ("table1", "chaos", ...). While an event tracer is
// attached the whole plan additionally holds the engine's plan lock, so
// simultaneous plans produce contiguous, deterministically ordered
// merged streams (and must not nest — see the Engine doc).
func MapNamed[T, R any](e *Engine, label string, items []T, fn func(*RunCtx, T) (R, error)) ([]R, error) {
	e = Or(e)
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

// runOne executes one run, retrying transient failures with exponential
// backoff up to the engine's retry budget. Every attempt gets a fresh
// RunCtx so a failed attempt's buffered events and memo-request records
// are discarded; the returned RunCtx is the final attempt's. Lifecycle
// transitions (running/retrying/terminal) are mirrored into the
// engine's Progress tracker under runID when one is attached.
func runOne[T, R any](e *Engine, base *obs.Observer, i, runID int, item T, fn func(*RunCtx, T) (R, error)) (R, *RunCtx, error) {
	ctx := e.context()
	p := e.progress
	if runID < 0 {
		p = nil
	}
	for attempt := 0; ; attempt++ {
		rc := e.newRunCtx(i, base, runID)
		if err := ctx.Err(); err != nil {
			if p != nil {
				p.runFinish(runID, nil, err)
			}
			var zero R
			return zero, rc, err
		}
		if p != nil {
			p.runStart(runID)
		}
		res, err := fn(rc, item)
		if err == nil || attempt >= e.retries || !IsTransient(err) {
			if p != nil {
				p.runFinish(runID, any(res), err)
			}
			if err != nil && e.log != nil {
				e.log.Error("run failed", "run", i, "attempts", attempt+1, "err", err)
			}
			return res, rc, err
		}
		if p != nil {
			p.runRetrying(runID, err)
		}
		if e.log != nil {
			e.log.Warn("transient run failure, retrying",
				"run", i, "attempt", attempt+1, "retries", e.retries, "err", err)
		}
		if e.backoff > 0 {
			t := time.NewTimer(e.backoff << attempt)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
	}
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
