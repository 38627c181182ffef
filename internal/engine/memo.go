package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// Key identifies one memoized computation. Keys are explicit composites —
// trace, directive set, and the full parameterization — so two
// runs that differ only in a selector or a tuning knob can never collide,
// unlike the old per-set-name bundle cache (which returned stale results
// when a different Set selector reused a name mid-process).
type Key struct {
	// Kind discriminates the artifact, and with it the policy:
	// "lru-sweep", "ws-sweep", "cd-run", "ws-run", "ws-min", "cd-detune".
	Kind string
	// Trace is the reference stream the artifact is computed from,
	// compared by identity: two compilations of one source (a program
	// recompiled at another page size keeps its name) never share an
	// artifact.
	Trace *trace.Trace
	// Set is the directive-set name ("" for set-independent artifacts).
	Set string
	// Params serializes every remaining parameter of the computation.
	Params string
}

// memoEntry is one singleflight slot. done is closed when val, err,
// events and keys are final.
type memoEntry struct {
	done chan struct{}
	val  any
	err  error
	// events buffers what the computation emitted; flushed once into the
	// plan's merged stream at the earliest-declared requester's position.
	events []obs.Event
	// keys are the nested memo keys the computation itself requested,
	// replayed into every requester so key traces are identical whether a
	// requester computed or waited.
	keys    []Key
	flushed bool
}

type memo struct {
	mu sync.Mutex
	m  map[Key]*memoEntry
}

// flush emits the entry's buffered events once. Entries still computing
// (possible only for keys requested by a different, concurrent plan) are
// left for their own plan's merge.
func (m *memo) flush(k Key, t obs.Tracer) {
	m.mu.Lock()
	ent := m.m[k]
	m.mu.Unlock()
	if ent == nil {
		return
	}
	select {
	case <-ent.done:
	default:
		return
	}
	m.mu.Lock()
	if ent.flushed {
		m.mu.Unlock()
		return
	}
	ent.flushed = true
	m.mu.Unlock()
	for _, ev := range ent.events {
		t.Emit(ev)
	}
}

// Memo computes the value for k exactly once per engine: the first
// requester runs fn while every concurrent requester blocks until the
// result is ready (singleflight). fn receives a computation context for
// nested memo requests and a private observer whose events are buffered
// with the entry and merged into the plan's event stream at the position
// of the earliest-declared requester. rc may be nil for standalone
// (non-MapNamed) use, in which case events are flushed to the base tracer
// immediately after computation.
func (e *Engine) Memo(rc *RunCtx, k Key, fn func(comp *RunCtx, o *obs.Observer) (any, error)) (any, error) {
	e.memo.mu.Lock()
	ent, ok := e.memo.m[k]
	if !ok {
		ent = &memoEntry{done: make(chan struct{})}
		e.memo.m[k] = ent
	}
	e.memo.mu.Unlock()

	if ok {
		<-ent.done
	} else {
		base := e.obs
		comp := &RunCtx{eng: e, progressID: -1}
		// The computing requester's live-position callback rides along so
		// a long memoized prerequisite still moves that run's /progress
		// entry (concurrent waiters just see the furthest position).
		var prog obs.ProgressFunc
		if rc != nil {
			prog = obs.ProgressOf(rc.Obs)
		}
		var o *obs.Observer
		if base.Enabled() {
			o = &obs.Observer{Metrics: base.Metrics, Progress: prog}
			if base.Tracer != nil {
				comp.buf = &obs.Collector{}
				o.Tracer = comp.buf
			}
			comp.Obs = o
		} else if prog != nil {
			o = &obs.Observer{Progress: prog}
			comp.Obs = o
		}
		ent.val, ent.err = fn(comp, o)
		if comp.buf != nil {
			ent.events = comp.buf.Events
		}
		ent.keys = comp.keys
		close(ent.done)
	}

	if rc != nil {
		// Record this key and the computation's nested keys so the merge
		// order is identical whether this requester computed or waited.
		rc.keys = append(rc.keys, k)
		rc.keys = append(rc.keys, ent.keys...)
	} else if base := e.obs; base != nil && base.Tracer != nil {
		e.flushMu.Lock()
		for _, nk := range ent.keys {
			e.memo.flush(nk, base.Tracer)
		}
		e.memo.flush(k, base.Tracer)
		e.flushMu.Unlock()
	}
	return ent.val, ent.err
}

// setParams serializes a directive set's full parameterization (not just
// its name) plus the CD minimum allocation: the composite-key fix for
// the stale-cache bug.
func setParams(set workloads.Set, minAlloc int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "level=%d,min=%d", set.Level, minAlloc)
	if len(set.Overrides) > 0 {
		keys := make([]string, 0, len(set.Overrides))
		for k := range set.Overrides {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, ",%s=%d", k, set.Overrides[k])
		}
	}
	return b.String()
}

// LRUSweep returns the trace's all-allocations LRU curve, computed
// once per engine: one Mattson stack-distance pass over the trace in
// curve mode, or V = tr.Distinct independent replays (one per
// allocation) in cell mode.
func (e *Engine) LRUSweep(rc *RunCtx, tr *trace.Trace) (*sweep.LRUCurve, error) {
	k := Key{Kind: "lru-sweep", Trace: tr}
	v, err := e.Memo(rc, k, func(*RunCtx, *obs.Observer) (any, error) {
		if e.cellMode {
			refs := tr.RefsOnly()
			cells := make([]vmsim.Result, tr.Distinct)
			for m := range cells {
				cells[m] = vmsim.Run(refs, policy.NewLRU(m+1))
			}
			return sweep.FromLRUCells(cells), nil
		}
		return sweep.NewLRU(tr)
	})
	if err != nil {
		return nil, err
	}
	return v.(*sweep.LRUCurve), nil
}

// WSSweep returns the trace's working-set curve index (the backward
// and forward interval histograms: PF(τ) and MemSum(τ) for every τ from
// one pass), computed once per engine. The index is mode-independent —
// cell mode diverges at the full-replay artifacts (WSRun, WSMinST), not
// at the histograms, which predate the curve engines.
func (e *Engine) WSSweep(rc *RunCtx, tr *trace.Trace) (*sweep.WS, error) {
	v, err := e.Memo(rc, Key{Kind: "ws-sweep", Trace: tr}, func(*RunCtx, *obs.Observer) (any, error) {
		return sweep.NewWS(tr)
	})
	if err != nil {
		return nil, err
	}
	return v.(*sweep.WS), nil
}

// CDRun runs (once per engine and full parameterization) the CD policy
// over the trace under the given directive set.
func (e *Engine) CDRun(rc *RunCtx, tr *trace.Trace, set workloads.Set, minAlloc int) (vmsim.Result, error) {
	k := Key{Kind: "cd-run", Trace: tr, Set: set.Name, Params: setParams(set, minAlloc)}
	v, err := e.Memo(rc, k, func(_ *RunCtx, o *obs.Observer) (any, error) {
		return vmsim.RunObserved(tr, policy.NewCD(set.Selector(), minAlloc), o), nil
	})
	if err != nil {
		return vmsim.Result{}, err
	}
	return v.(vmsim.Result), nil
}

// WSRun returns the WS(tau) result over the trace, once per engine and
// window. With an enabled observer the full trace is replayed
// instrumented (per-reference events, exactly as before the curve
// plane); otherwise curve mode reads the point off the one-pass grid
// engine and cell mode replays the directive-stripped trace solo.
func (e *Engine) WSRun(rc *RunCtx, tr *trace.Trace, tau int) (vmsim.Result, error) {
	k := Key{Kind: "ws-run", Trace: tr, Params: fmt.Sprintf("tau=%d", tau)}
	v, err := e.Memo(rc, k, func(comp *RunCtx, o *obs.Observer) (any, error) {
		if o.Enabled() {
			return vmsim.RunObserved(tr, policy.NewWS(tau), o), nil
		}
		if e.cellMode {
			return vmsim.Run(tr.RefsOnly(), policy.NewWS(tau)), nil
		}
		s, err := e.WSSweep(comp, tr)
		if err != nil {
			return nil, err
		}
		return s.Run(tau)
	})
	if err != nil {
		return vmsim.Result{}, err
	}
	return v.(vmsim.Result), nil
}

// wsMin pairs the minimizing window with its result.
type wsMin struct {
	tau int
	res vmsim.Result
}

// WSMinST returns the working-set window minimizing space-time cost and
// its full result, computed once per engine. In curve mode the whole τ
// ladder falls out of one grid-engine traversal; cell mode replays the
// trace at every ladder point. The search itself is never observed: with
// an enabled observer the minimizing window's result comes from WSRun,
// so a watched run replays only the one window the table prints, and its
// event stream is the same in either mode.
func (e *Engine) WSMinST(rc *RunCtx, tr *trace.Trace) (int, vmsim.Result, error) {
	k := Key{Kind: "ws-min", Trace: tr}
	v, err := e.Memo(rc, k, func(comp *RunCtx, o *obs.Observer) (any, error) {
		var m wsMin
		if e.cellMode {
			refs := tr.RefsOnly()
			taus := vmsim.DefaultTaus(tr.Refs)
			m = wsMin{taus[0], vmsim.Run(refs, policy.NewWS(taus[0]))}
			for _, tau := range taus[1:] {
				if r := vmsim.Run(refs, policy.NewWS(tau)); r.SpaceTime < m.res.SpaceTime {
					m = wsMin{tau, r}
				}
			}
		} else {
			s, err := e.WSSweep(comp, tr)
			if err != nil {
				return nil, err
			}
			if m.tau, m.res, err = s.MinST(); err != nil {
				return nil, err
			}
		}
		if o.Enabled() {
			var err error
			if m.res, err = e.WSRun(comp, tr, m.tau); err != nil {
				return nil, err
			}
		}
		return m, nil
	})
	if err != nil {
		return 0, vmsim.Result{}, err
	}
	m := v.(wsMin)
	return m.tau, m.res, nil
}

// CDDetune runs the CD policy with every granted allocation scaled by
// each factor — the whole detune grid as one memoized artifact. Curve
// mode steps the entire grid in lockstep through one trace traversal
// (sweep.Multi); cell mode and the instrumented path replay per factor,
// in factor order. detune wraps the set's selector with the caller's
// scaling rule. Results are in factors order.
func (e *Engine) CDDetune(rc *RunCtx, tr *trace.Trace, set workloads.Set, minAlloc int, factors []float64,
	detune func(policy.ArmSelector, float64) policy.ArmSelector) ([]vmsim.Result, error) {
	params := setParams(set, minAlloc) + ",factors=" + fmtFactors(factors)
	k := Key{Kind: "cd-detune", Trace: tr, Set: set.Name, Params: params}
	v, err := e.Memo(rc, k, func(_ *RunCtx, o *obs.Observer) (any, error) {
		pols := make([]policy.Policy, len(factors))
		for i, f := range factors {
			pols[i] = policy.NewCD(detune(set.Selector(), f), minAlloc)
		}
		if !o.Enabled() && !e.cellMode {
			return sweep.Multi(tr, pols)
		}
		out := make([]vmsim.Result, len(pols))
		for i, pol := range pols {
			out[i] = vmsim.RunObserved(tr, pol, o)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]vmsim.Result), nil
}

// fmtFactors serializes a factor grid for a memo key.
func fmtFactors(factors []float64) string {
	var b strings.Builder
	for i, f := range factors {
		if i > 0 {
			b.WriteByte(':')
		}
		fmt.Fprintf(&b, "%g", f)
	}
	return b.String()
}
