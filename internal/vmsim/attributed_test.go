package vmsim

import (
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/workloads"
)

// sitedTrace stamps a random trace with a rotating set of fake sites so
// attribution tests exercise multi-run site columns without a compiler.
func sitedTrace(seed uint64, n, universe, nsites int) *trace.Trace {
	rng := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	tr := trace.New("sited")
	ids := make([]int32, nsites)
	for i := range ids {
		ids[i] = tr.AddSite(trace.Site{
			Nest:  "DO 10 / DO 20",
			Line:  10 + i,
			Array: "A",
			Expr:  "A(I,J)",
		})
	}
	base := 0
	for i := 0; i < n; i++ {
		if rng()%97 == 0 {
			base = int(rng()) % universe
		}
		if rng()%53 == 0 {
			tr.SetSite(ids[int(rng())%nsites])
		}
		span := 4 + int(rng()%8)
		tr.AddRef(mem.Page((base + int(rng())%span) % universe))
	}
	return tr
}

// sitedCDPhaseTrace is cdPhaseTrace with a site column: one site per
// phase loop plus directive sites.
func sitedCDPhaseTrace() *trace.Trace {
	tr := trace.New("cdphase")
	sLoop1 := tr.AddSite(trace.Site{Nest: "DO 10", Line: 10, Array: "A", Expr: "A(I)"})
	sLoop2 := tr.AddSite(trace.Site{Nest: "DO 20", Line: 20, Array: "B", Expr: "B(I)"})
	sLoop3 := tr.AddSite(trace.Site{Nest: "DO 30", Line: 30, Array: "A", Expr: "A(I)"})
	sAlloc1 := tr.AddSite(trace.Site{Nest: "DO 10", Line: 10, Expr: "ALLOCATE"})
	sAlloc2 := tr.AddSite(trace.Site{Nest: "DO 20", Line: 20, Expr: "ALLOCATE"})
	sLock := tr.AddSite(trace.Site{Nest: "DO 10", Line: 10, Expr: "LOCK"})
	sUnlock := tr.AddSite(trace.Site{Nest: "DO 20", Line: 20, Expr: "UNLOCK"})

	src := cdPhaseTrace()
	tr.Allocs, tr.LockSets, tr.UnlockSets = src.Allocs, src.LockSets, src.UnlockSets
	// Rebuild cdPhaseTrace event-for-event through the raw append,
	// stamping sites.
	evs, _ := flatten(src)
	for ei, e := range evs {
		switch e.Kind {
		case trace.EvRef:
			switch {
			case ei < 1+80: // first phase refs
				tr.SetSite(sLoop1)
			case ei < 1+80+2+40: // second phase refs
				tr.SetSite(sLoop2)
			default:
				tr.SetSite(sLoop3)
			}
		case trace.EvAlloc:
			if ei == 0 {
				tr.SetSite(sAlloc1)
			} else {
				tr.SetSite(sAlloc2)
			}
		case trace.EvLock:
			tr.SetSite(sLock)
		case trace.EvUnlock:
			tr.SetSite(sUnlock)
		}
		tr.Append(e)
	}
	return tr
}

// flatten walks tr's blocks with sites into its event stream and the
// site id of each event (NoSite throughout on a column-less trace).
func flatten(tr *trace.Trace) (evs []trace.Event, sites []int32) {
	_ = tr.WalkBlocks(trace.CursorOpts{WithSites: true}, func(b trace.Block) bool {
		for i, pg := range b.Pages {
			evs = append(evs, trace.Event{Kind: trace.EvRef, Arg: int32(pg)})
			site := trace.NoSite
			if b.Sites != nil {
				site = b.Sites[i]
			}
			sites = append(sites, site)
		}
		if b.HasDir {
			evs = append(evs, b.Dir)
			sites = append(sites, b.DirSite)
		}
		return true
	})
	return evs, sites
}

// TestAttributedMatchesRun pins the tentpole's core identity: the Result
// RunAttributed returns is bit-for-bit the Result Run returns, with and
// without a site column.
func TestAttributedMatchesRun(t *testing.T) {
	cases := []struct {
		name string
		tr   *trace.Trace
		mk   func() policy.Policy
	}{
		{"LRU/sited", sitedTrace(7, 5000, 40, 5), func() policy.Policy { return policy.NewLRU(8) }},
		{"WS/sited", sitedTrace(11, 5000, 40, 3), func() policy.Policy { return policy.NewWS(64) }},
		{"FIFO/sited", sitedTrace(13, 5000, 40, 4), func() policy.Policy { return policy.NewFIFO(8) }},
		{"CD/sited", sitedCDPhaseTrace(), func() policy.Policy { return policy.NewCD(policy.SelectLevel(2), 2) }},
		{"LRU/siteless", randomTrace(7, 5000, 40), func() policy.Policy { return policy.NewLRU(8) }},
		{"CD/siteless", cdPhaseTrace(), func() policy.Policy { return policy.NewCD(policy.SelectLevel(2), 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := Run(tc.tr, tc.mk())
			got, led := RunAttributed(tc.tr, tc.mk(), nil)
			if got != want {
				t.Errorf("attributed result diverged:\n run  %+v\n attr %+v", want, got)
			}
			if err := led.Conservation(); err != nil {
				t.Errorf("conservation: %v", err)
			}
		})
	}
}

// TestAttributedSitelessUnattributed checks a column-less trace lands
// everything in the unattributed bucket.
func TestAttributedSitelessUnattributed(t *testing.T) {
	tr := randomTrace(3, 2000, 20)
	res, led := RunAttributed(tr, policy.NewLRU(8), nil)
	slot := led.Slot(trace.NoSite)
	if slot.Refs != int64(res.Refs) || slot.Faults != res.Faults {
		t.Errorf("unattributed bucket = %d refs / %d faults, want %d / %d",
			slot.Refs, slot.Faults, res.Refs, res.Faults)
	}
	if err := led.Conservation(); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

// TestAttributedGroundTruthLRU recomputes the per-site fault counts with
// an independent map-based LRU walked over the trace's events and their
// sites and requires an exact match — the attribution pipeline against a second
// implementation, not against itself.
func TestAttributedGroundTruthLRU(t *testing.T) {
	tr := sitedTrace(17, 8000, 60, 6)
	const frames = 8
	_, led := RunAttributed(tr, policy.NewLRU(frames), nil)

	// Independent LRU: map + use-time, linear-scan eviction.
	type rec struct{ last int64 }
	resident := map[mem.Page]*rec{}
	var clock int64
	wantFaults := map[int32]int{}
	evs, sites := flatten(tr)
	for i, e := range evs {
		site := sites[i]
		if e.Kind != trace.EvRef {
			continue
		}
		clock++
		pg := mem.Page(e.Arg)
		if r, ok := resident[pg]; ok {
			r.last = clock
			continue
		}
		wantFaults[site]++
		if len(resident) >= frames {
			var victim mem.Page
			oldest := int64(1 << 62)
			for p, r := range resident {
				if r.last < oldest {
					oldest, victim = r.last, p
				}
			}
			delete(resident, victim)
		}
		resident[pg] = &rec{last: clock}
	}
	for i := range led.Stats {
		s := &led.Stats[i]
		if s.Faults != wantFaults[s.ID] {
			t.Errorf("site %d: ledger %d faults, ground truth %d", s.ID, s.Faults, wantFaults[s.ID])
		}
	}
}

// TestAttributedDirectiveCounters exercises the directive-effectiveness
// ledger: ALLOCATE/LOCK/UNLOCK execution counts land on their sites, and
// hits under a LOCK cover are credited to the locking site.
func TestAttributedDirectiveCounters(t *testing.T) {
	tr := sitedCDPhaseTrace()
	_, led := RunAttributed(tr, policy.NewCD(policy.SelectLevel(2), 2), nil)
	if err := led.Conservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	var allocs, locks, unlocks int
	var lockedHits int64
	for i := range led.Stats {
		s := &led.Stats[i]
		allocs += s.Allocs
		locks += s.Locks
		unlocks += s.Unlocks
		lockedHits += s.LockedHits
	}
	if allocs != 2 || locks != 1 || unlocks != 1 {
		t.Errorf("directive counts = %d allocs / %d locks / %d unlocks, want 2/1/1", allocs, locks, unlocks)
	}
	// Pages 0 and 1 are locked across the second phase and re-referenced
	// in the third while still locked? They are unlocked before phase 3,
	// so locked hits can only come from phase-2 references — the phase-2
	// loop touches pages 8..11, never 0..1, so no hits are required; just
	// check the counter is attributed to the lock site if present.
	for i := range led.Stats {
		s := &led.Stats[i]
		if s.LockedHits > 0 && s.Locks == 0 {
			t.Errorf("locked hits credited to non-lock site %d (%s)", s.ID, s.Name())
		}
	}
}

// TestAttributedShrinkRefault builds a trace where an ALLOCATE shrink
// evicts a page that is then re-referenced: the refault must be charged
// to the allocation site as a ShrinkFault.
func TestAttributedShrinkRefault(t *testing.T) {
	tr := trace.New("shrink")
	sLoop := tr.AddSite(trace.Site{Nest: "DO 10", Line: 10, Array: "A", Expr: "A(I)"})
	sAlloc := tr.AddSite(trace.Site{Nest: "DO 20", Line: 20, Expr: "ALLOCATE"})
	sLoop2 := tr.AddSite(trace.Site{Nest: "DO 30", Line: 30, Array: "A", Expr: "A(I)"})

	tr.SetSite(sLoop)
	tr.AddAlloc(&directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 8}}})
	for i := 0; i < 8; i++ {
		tr.AddRef(mem.Page(i))
	}
	// Shrink the allocation to 2 pages: evicts 6 resident pages.
	tr.SetSite(sAlloc)
	tr.AddAlloc(&directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 2}}})
	// Re-reference the evicted pages: refaults caused by the early free.
	tr.SetSite(sLoop2)
	for i := 0; i < 6; i++ {
		tr.AddRef(mem.Page(i))
	}

	_, led := RunAttributed(tr, policy.NewCD(policy.SelectLevel(1), 2), nil)
	if err := led.Conservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	st := led.Slot(sAlloc)
	if st.Allocs != 1 {
		t.Errorf("alloc site executed %d allocations, want 1", st.Allocs)
	}
	if st.ShrinkFaults == 0 {
		t.Error("no shrink refaults charged to the allocation site")
	}
	if st.Evictions == 0 {
		t.Error("no evictions charged to the allocation site")
	}
}

// TestAttributedConservationWorkloads is the attribution-conservation
// acceptance test: on every registered workload, per-site PF sums
// exactly equal total PF — under CD, LRU and WS — and the attributed
// Result matches the plain Run.
func TestAttributedConservationWorkloads(t *testing.T) {
	for _, p := range workloads.All() {
		c, tr := compiled(t, p.Name)
		if !tr.HasSites() {
			t.Fatalf("%s: compiled trace carries no site column", p.Name)
		}
		pols := []struct {
			name string
			mk   func() policy.Policy
			tr   *trace.Trace
		}{
			{"CD", func() policy.Policy { return policy.NewCD(p.DefaultSet().Selector(), 2) }, tr},
			{"LRU", func() policy.Policy { return policy.NewLRU(c.V()/2 + 1) }, tr.RefsOnly()},
			{"WS", func() policy.Policy { return policy.NewWS(1000) }, tr.RefsOnly()},
		}
		for _, pc := range pols {
			want := Run(pc.tr, pc.mk())
			res, led := RunAttributed(pc.tr, pc.mk(), nil)
			if res != want {
				t.Errorf("%s/%s: attributed result diverged:\n run  %+v\n attr %+v", p.Name, pc.name, want, res)
			}
			if err := led.Conservation(); err != nil {
				t.Errorf("%s/%s: %v", p.Name, pc.name, err)
			}
			var pf int
			for i := range led.Stats {
				pf += led.Stats[i].Faults
			}
			if pf != res.Faults {
				t.Errorf("%s/%s: per-site PF sums to %d, run took %d", p.Name, pc.name, pf, res.Faults)
			}
		}
	}
}

// TestAttributedHotspotIsLoopSite checks that on every workload the
// top-ranked fault site is a real source construct (a named loop nest),
// not the unattributed bucket — `cdmm explain` must name a loop, not
// shrug.
func TestAttributedHotspotIsLoopSite(t *testing.T) {
	for _, p := range workloads.All() {
		_, tr := compiled(t, p.Name)
		_, led := RunAttributed(tr, policy.NewCD(p.DefaultSet().Selector(), 2), nil)
		hs := led.Hotspot()
		if hs == nil {
			continue // fault-free run
		}
		if hs.ID == trace.NoSite {
			t.Errorf("%s: hotspot is the unattributed bucket (%d faults)", p.Name, hs.Faults)
		}
	}
}
