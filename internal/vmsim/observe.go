// Observability integration: RunObserved drives a policy over a trace
// while emitting structured events (fault/res/alloc/phase/lock/unlock/
// swap) with virtual-time stamps into an obs.Tracer and updating an
// obs.Registry. The event stream is exact: obs.Replay over it
// reconstructs the run's fault count and memory sum bit-for-bit (see
// TestEventStreamMatchesResult), so a saved JSONL file audits the
// printed Result.
package vmsim

import (
	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// RunObserved is Run with an observer. A nil observer, or one that
// observes nothing, runs the bare fast path, so observability-off costs
// nothing. An observer whose Gate is closed (or that carries only a
// Progress callback) also takes the fast path, with periodic progress
// delivery — the disabled-path pattern the live telemetry server relies
// on when no client is connected.
func RunObserved(tr *trace.Trace, pol policy.Policy, o *obs.Observer) Result {
	res, _ := RunSource(tr, pol, o) // in-memory cursors cannot fail
	return res
}

// observeHooks is the observation hook set of a watched replay: it
// streams events and metrics while the loop accumulates the exact same
// Result as the fast path (same fault decisions, same space-time
// charging), emits the run's opening event, and installs CD hook points
// that stamp policy-internal transitions with the virtual time of the
// directive that caused them. The returned func uninstalls the CD hooks.
func observeHooks(o *obs.Observer, pol policy.Policy, src trace.Source) (*hooks, func()) {
	w := &hooks{}
	tb := src.Tables()
	reg := o.Metrics
	var cRefs, cFaults, cSwapSig, cLockRel *obs.Counter
	if reg != nil {
		cRefs = reg.Counter("refs")
		cFaults = reg.Counter("faults")
		cSwapSig = reg.Counter("swap_signals")
		cLockRel = reg.Counter("lock_releases")
	}
	// The run fills its own histograms and merges them into the shared
	// registry when it ends, so parallel runs never contend on them.
	// Every observation is an integer: a virtual-time gap or a page count.
	var hInter, hRes, hLock obs.Log2Hist

	// lockAt tracks when each page was locked (directive-level, virtual
	// time) to measure lock-hold durations.
	lockAt := map[mem.Page]int64{}
	closeHold := func(pg mem.Page) {
		if t0, ok := lockAt[pg]; ok {
			if reg != nil {
				hLock.Observe(w.acc.VTime - t0)
			}
			delete(lockAt, pg)
		}
	}

	restore := func() {}
	if cd := policy.AsCD(pol); cd != nil {
		saved := cd.Hooks
		cd.Hooks = &policy.CDHooks{
			AllocChange: func(prev, next int) {
				o.Emit(obs.Event{Kind: obs.KindPhase, T: w.acc.VTime, Prev: prev, Alloc: next})
			},
			SwapSignal: func() {
				if cSwapSig != nil {
					cSwapSig.Inc()
				}
				o.Emit(obs.Event{Kind: obs.KindSwap, T: w.acc.VTime, Why: "signal"})
			},
			LockRelease: func(pg mem.Page) {
				if cLockRel != nil {
					cLockRel.Inc()
				}
				o.Emit(obs.Event{Kind: obs.KindLockRel, T: w.acc.VTime, Page: int(pg)})
				closeHold(pg)
			},
			Degrade: func(reason string) {
				if o.Metrics != nil {
					o.Metrics.Counter("degradations").Inc()
				}
				o.Emit(obs.Event{Kind: obs.KindDegrade, T: w.acc.VTime, Why: reason})
			},
		}
		restore = func() { cd.Hooks = saved }
	}

	var lastFaultVT int64
	prevCharge := -1
	refs := 0
	w.ref = func(pg mem.Page, fault bool, _ int64, m int) {
		refs++
		vt := w.acc.VTime
		if cRefs != nil {
			cRefs.Inc()
			hRes.Observe(int64(m))
		}
		if fault {
			if cFaults != nil {
				cFaults.Inc()
				hInter.Observe(vt - lastFaultVT)
			}
			o.Emit(obs.Event{Kind: obs.KindFault, T: vt, I: refs, Page: int(pg), Res: m})
			lastFaultVT = vt
		}
		if m != prevCharge {
			o.Emit(obs.Event{Kind: obs.KindRes, T: vt, I: refs, Res: m})
			prevCharge = m
		}
	}
	w.directive = func(e trace.Event) {
		vt := w.acc.VTime
		switch e.Kind {
		case trace.EvAlloc:
			o.Emit(obs.Event{Kind: obs.KindAlloc, T: vt, Label: tb.Alloc(e).Label})
		case trace.EvLock:
			ls := tb.Lock(e)
			o.Emit(obs.Event{Kind: obs.KindLock, T: vt, PJ: ls.PJ, Site: ls.Site, Pages: len(ls.Pages)})
			for _, pg := range ls.Pages {
				if _, ok := lockAt[pg]; !ok {
					lockAt[pg] = vt
				}
			}
		case trace.EvUnlock:
			pages := tb.Unlock(e)
			o.Emit(obs.Event{Kind: obs.KindUnlock, T: vt, Pages: len(pages)})
			for _, pg := range pages {
				closeHold(pg)
			}
		}
	}
	// The end event carries the run's totals. The registry gets no
	// per-run gauge: every run of a plan shares it, so a gauge would keep
	// whichever run finished last.
	w.end = func(res Result) {
		if reg != nil {
			reg.MergeHist("fault_interarrival_vtime", &hInter)
			reg.MergeHist("resident_pages", &hRes)
			reg.MergeHist("lock_hold_vtime", &hLock)
		}
		o.Emit(obs.Event{Kind: obs.KindEnd, T: res.VirtualTime, Refs: res.Refs, Faults: res.Faults, Mem: res.MEM()})
	}

	o.Emit(obs.Event{Kind: obs.KindRun, Label: pol.Name(), Refs: src.Meta().Refs})
	return w, restore
}
