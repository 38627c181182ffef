// Fault attribution: RunAttributed replays a trace exactly like Run —
// same fault decisions, same space-time charging, same Result — while
// walking the trace's site side-band in lockstep and charging every
// reference, fault, eviction and directive action to the source site
// executing at that instant. The aggregates land in an attr.Ledger whose
// per-site sums equal the run totals by construction. Attribution is a
// hook set on the replay loop, attached only on request, so the
// un-instrumented fast path never touches the side-band.
package vmsim

import (
	"cdmm/internal/attr"
	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// Eviction provenance classes, recorded per page so the fault that a
// past eviction causes can be charged back to the construct that evicted
// the page.
const (
	evictNone    = iota // never evicted (or provenance already consumed)
	evictReplace        // normal replacement / working-set expiry
	evictShrink         // evicted by a directive-driven allocation shrink
	evictRelease        // force-released from a LOCK under memory pressure
)

// setEvictHook installs fn on the first EvictObserver in pol's Unwrap
// chain and returns an uninstaller (a no-op when none is found).
func setEvictHook(pol policy.Policy, fn func(mem.Page)) func() {
	for p := pol; p != nil; {
		if eo, ok := p.(policy.EvictObserver); ok {
			eo.SetEvictHook(fn)
			return func() { eo.SetEvictHook(nil) }
		}
		u, ok := p.(interface{ Unwrap() policy.Policy })
		if !ok {
			break
		}
		p = u.Unwrap()
	}
	return func() {}
}

// RunAttributed is Run with fault attribution: the returned Result is
// identical to Run's, and the Ledger explains it site by site. The
// observer is used for progress delivery only (pass nil for none); event
// emission stays with RunObserved. A trace without a site side-band
// still works — everything lands in the ledger's unattributed bucket.
func RunAttributed(tr *trace.Trace, pol policy.Policy, o *obs.Observer) (Result, *attr.Ledger) {
	led := attr.NewLedger(tr.Meta().Name, pol.Name(), tr.Tables().Sites)
	w, restore := attributeHooks(led, pol, tr)
	defer restore()
	res, _ := replay(tr, pol, obs.ProgressOf(o), w) // in-memory cursors cannot fail
	return res, led
}

// attributeHooks is the attribution hook set of a watched replay: it
// streams the site column alongside the references and charges every
// reference, fault, eviction and directive action to the site executing
// at that instant, with per-page eviction provenance so a fault that a
// past directive-driven eviction causes is charged back to that
// directive's site. The returned func uninstalls the policy hooks.
func attributeHooks(led *attr.Ledger, pol policy.Policy, src trace.Source) (*hooks, func()) {
	w := &hooks{sites: true}
	tb := src.Tables()

	// Per-page provenance, dense by page number. Pages outside the
	// reference universe (possible in directive page sets) are skipped.
	npages := int(src.Meta().MaxPage) + 1
	evictKind := make([]uint8, npages)
	evictSite := make([]int32, npages) // valid while evictKind != evictNone
	lockSite := make([]int32, npages)  // site of the active LOCK covering the page
	for i := range lockSite {
		lockSite[i] = trace.NoSite
	}
	lockCover := map[int][]mem.Page{} // LockSet.Site → currently covered pages

	// Evictions inherit the site of the event being applied; those
	// during an ALLOCATE are shrink evictions: the allocation ceiling
	// dropped and pushed pages out early.
	unhook := setEvictHook(pol, func(pg mem.Page) {
		led.Slot(w.site).Evictions++
		if int(pg) < npages {
			evictKind[pg] = evictReplace
			if w.kind == trace.EvAlloc {
				evictKind[pg] = evictShrink
			}
			evictSite[pg] = w.site
		}
	})

	clearLocks := func() {
		for i := range lockSite {
			lockSite[i] = trace.NoSite
		}
		for k := range lockCover {
			delete(lockCover, k)
		}
	}

	restore := unhook
	if cd := policy.AsCD(pol); cd != nil {
		saved := cd.Hooks
		cdh := &policy.CDHooks{}
		if saved != nil {
			*cdh = *saved
		}
		prevRel, prevDeg := cdh.LockRelease, cdh.Degrade
		cdh.LockRelease = func(pg mem.Page) {
			if prevRel != nil {
				prevRel(pg)
			}
			owner := trace.NoSite
			if int(pg) < npages {
				owner = lockSite[pg]
				lockSite[pg] = trace.NoSite
				evictKind[pg] = evictRelease
				evictSite[pg] = owner
			}
			led.Slot(owner).LockReleases++
		}
		cdh.Degrade = func(reason string) {
			if prevDeg != nil {
				prevDeg(reason)
			}
			// A degraded policy drops every lock; stop crediting covers.
			clearLocks()
		}
		cd.Hooks = cdh
		restore = func() {
			unhook()
			cd.Hooks = saved
		}
	}

	w.ref = func(pg mem.Page, fault bool, dt int64, m int) {
		site := w.site
		st := led.Slot(site)
		if fault {
			st.Faults++
			led.FaultLog = append(led.FaultLog, attr.FaultPoint{VT: w.acc.VTime, Site: site, Page: int32(pg)})
			if int(pg) < npages {
				switch evictKind[pg] {
				case evictShrink:
					led.Slot(evictSite[pg]).ShrinkFaults++
				case evictRelease:
					led.Slot(evictSite[pg]).ReleaseFaults++
				}
				evictKind[pg] = evictNone
			}
		} else if int(pg) < npages && lockSite[pg] != trace.NoSite {
			led.Slot(lockSite[pg]).LockedHits++
		}
		st.Refs++
		st.VTime += dt
		st.MemSum += float64(m)
	}
	w.directive = func(e trace.Event) {
		site := w.site
		switch e.Kind {
		case trace.EvAlloc:
			led.Slot(site).Allocs++
		case trace.EvLock:
			ls := tb.Lock(e)
			led.Slot(site).Locks++
			// A re-executed lock site replaces its previous cover.
			for _, pg := range lockCover[ls.Site] {
				if int(pg) < npages {
					lockSite[pg] = trace.NoSite
				}
			}
			lockCover[ls.Site] = append(lockCover[ls.Site][:0], ls.Pages...)
			for _, pg := range ls.Pages {
				if int(pg) < npages {
					lockSite[pg] = site
				}
			}
		case trace.EvUnlock:
			led.Slot(site).Unlocks++
			for _, pg := range tb.Unlock(e) {
				if int(pg) < npages {
					lockSite[pg] = trace.NoSite
				}
			}
		}
	}
	w.end = func(res Result) {
		led.Refs = res.Refs
		led.Faults = res.Faults
		led.MemSum = res.MemSum
		led.VirtualTime = res.VirtualTime
	}
	return w, restore
}
