package policy

import (
	"strings"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// alloc builds an AllocDirective literal for tests.
func alloc(label string, arms ...directive.Arm) trace.AllocDirective {
	return trace.AllocDirective{Label: label, Arms: arms}
}

// TestCheckCleanStreamIdentical drives two CD policies — one validating,
// one trusting — through the same well-formed directive/reference stream
// and requires identical behavior: with injection disabled, checked paths
// must be invisible.
func TestCheckCleanStreamIdentical(t *testing.T) {
	trusting := NewCD(SelectLevel(2), 2)
	checked := NewCD(SelectLevel(2), 2)
	checked.Check = &CheckConfig{MaxPage: 32}

	step := func(f func(p *CD)) {
		f(trusting)
		f(checked)
		if a, b := trusting.Resident(), checked.Resident(); a != b {
			t.Fatalf("resident diverged: trusting %d, checked %d", a, b)
		}
		if a, b := trusting.LockedPages(), checked.LockedPages(); a != b {
			t.Fatalf("locked diverged: trusting %d, checked %d", a, b)
		}
	}

	step(func(p *CD) { p.Alloc(alloc("10", directive.Arm{PI: 2, X: 8}, directive.Arm{PI: 1, X: 3})) })
	for i := 0; i < 20; i++ {
		pg := mem.Page(i % 6)
		fa := trusting.Ref(pg)
		fb := checked.Ref(pg)
		if fa != fb {
			t.Fatalf("ref %d: fault diverged: trusting %v, checked %v", i, fa, fb)
		}
	}
	step(func(p *CD) { p.Lock(trace.LockSet{PJ: 2, Site: 0, Pages: []mem.Page{0, 1}}) })
	step(func(p *CD) { p.Alloc(alloc("20", directive.Arm{PI: 1, X: 2})) })
	step(func(p *CD) { p.Unlock([]mem.Page{0, 1}) })

	if checked.Degraded() {
		t.Fatalf("clean stream degraded the policy: %s", checked.DegradedReason())
	}
	if err := checked.AuditLocks(); err != nil {
		t.Fatalf("lock audit on clean stream: %v", err)
	}
}

// TestDegradeOnContractViolations exercises one representative violation
// per directive kind and checks the policy lands in degraded mode with a
// descriptive reason.
func TestDegradeOnContractViolations(t *testing.T) {
	cases := []struct {
		name string
		feed func(p *CD)
		want string // substring of the degradation reason
	}{
		{
			name: "priority not decreasing",
			feed: func(p *CD) {
				p.Alloc(alloc("10", directive.Arm{PI: 2, X: 8}, directive.Arm{PI: 9, X: 3}))
			},
			want: "does not decrease",
		},
		{
			name: "allocation beyond address space",
			feed: func(p *CD) {
				p.Alloc(alloc("10", directive.Arm{PI: 1, X: 999}))
			},
			want: "addresses only",
		},
		{
			name: "empty else-chain",
			feed: func(p *CD) { p.Alloc(alloc("10")) },
			want: "empty else-chain",
		},
		{
			name: "lock page out of range",
			feed: func(p *CD) {
				p.Lock(trace.LockSet{PJ: 1, Site: 0, Pages: []mem.Page{500}})
			},
			want: "unknown page",
		},
		{
			name: "lock priority below one",
			feed: func(p *CD) {
				p.Lock(trace.LockSet{PJ: 0, Site: 0, Pages: []mem.Page{1}})
			},
			want: "priority",
		},
		{
			name: "unlock page out of range",
			feed: func(p *CD) { p.Unlock([]mem.Page{-3}) },
			want: "page",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewCD(SelectLevel(2), 2)
			p.Check = &CheckConfig{MaxPage: 16}
			for i := 0; i < 4; i++ {
				p.Ref(mem.Page(i))
			}
			tc.feed(p)
			if !p.Degraded() {
				t.Fatal("violation did not degrade the policy")
			}
			if !strings.Contains(p.DegradedReason(), tc.want) {
				t.Errorf("reason %q does not mention %q", p.DegradedReason(), tc.want)
			}
		})
	}
}

// TestDegradeReleasesLocksAndWarmsFallback verifies the degradation
// transition itself: locks drop, the resident set carries over into the
// WS fallback (no refault storm), and later directives are ignored.
func TestDegradeReleasesLocksAndWarmsFallback(t *testing.T) {
	p := NewCD(SelectLevel(2), 2)
	p.Check = &CheckConfig{MaxPage: 16}
	p.Alloc(alloc("10", directive.Arm{PI: 1, X: 8}))
	for i := 0; i < 5; i++ {
		p.Ref(mem.Page(i))
	}
	p.Lock(trace.LockSet{PJ: 1, Site: 0, Pages: []mem.Page{0, 1}})
	if p.LockedPages() != 2 {
		t.Fatalf("locked = %d, want 2", p.LockedPages())
	}
	before := p.Resident()

	p.Alloc(alloc("BAD", directive.Arm{PI: 1, X: 99})) // violates MaxPage
	if !p.Degraded() {
		t.Fatal("expected degradation")
	}
	if p.LockedPages() != 0 {
		t.Errorf("degradation left %d pages locked", p.LockedPages())
	}
	if p.Resident() != before {
		t.Errorf("resident changed across degradation: %d -> %d", before, p.Resident())
	}
	// Warmed pages are hits, new pages fault.
	for i := 0; i < 5; i++ {
		if p.Ref(mem.Page(i)) {
			t.Errorf("page %d refaulted after warm handoff", i)
		}
	}
	if !p.Ref(mem.Page(9)) {
		t.Error("unseen page did not fault in fallback")
	}
	// Further directives are no-ops in degraded mode.
	p.Alloc(alloc("10", directive.Arm{PI: 1, X: 2}))
	p.Lock(trace.LockSet{PJ: 1, Site: 1, Pages: []mem.Page{2}})
	if p.LockedPages() != 0 {
		t.Error("degraded policy accepted a LOCK")
	}
}

// TestDegradedFallbackSizedOnceAndReused pins the fallback's storage: a
// degradation sizes the WS window ring for τ plus the carried resident
// set, so the run never grows it, and a degradation after Reset reuses
// the same fallback and its ring with the faults of the first run.
func TestDegradedFallbackSizedOnceAndReused(t *testing.T) {
	p := NewCD(SelectLevel(2), 2)
	p.Check = &CheckConfig{MaxPage: 16}
	p.HintPages(15, 16)
	run := func() (faults int, ring []wsRecord) {
		p.Alloc(alloc("10", directive.Arm{PI: 1, X: 8}))
		for i := 0; i < 12; i++ {
			p.Ref(mem.Page(i % 6))
		}
		p.Alloc(alloc("BAD", directive.Arm{PI: 1, X: 99})) // violates MaxPage
		if !p.Degraded() {
			t.Fatal("expected degradation")
		}
		ring = p.fallback.win
		if len(ring) < DefaultFallbackTau+1+6 {
			t.Fatalf("fallback ring holds %d records, want room for τ+1 plus 6 warm pages", len(ring))
		}
		var out BlockResult
		pages := make([]mem.Page, 64)
		for b := 0; b < 80; b++ {
			for i := range pages {
				pages[i] = mem.Page((b*len(pages) + i) * 7 % 16)
			}
			p.StepBlock(pages, &out)
		}
		if &p.fallback.win[0] != &ring[0] {
			t.Fatalf("fallback ring grew from %d to %d records", len(ring), len(p.fallback.win))
		}
		return out.Faults, ring
	}
	faults, ring := run()
	ws := p.fallback
	p.Reset()
	again, ringAgain := run()
	if p.fallback != ws || &ringAgain[0] != &ring[0] {
		t.Error("degradation after Reset built a new fallback")
	}
	if again != faults {
		t.Errorf("faults after Reset = %d, first run %d", again, faults)
	}
}

// TestDegradeIdempotentAndHook checks the Degrade hook fires exactly once
// with the first reason.
func TestDegradeIdempotentAndHook(t *testing.T) {
	p := NewCD(SelectLevel(2), 2)
	p.Check = &CheckConfig{MaxPage: 16}
	var reasons []string
	p.Hooks = &CDHooks{Degrade: func(r string) { reasons = append(reasons, r) }}

	p.Alloc(alloc("A"))                                // first violation: empty chain
	p.Alloc(alloc("B", directive.Arm{PI: 1, X: 9999})) // would be a second
	if len(reasons) != 1 {
		t.Fatalf("Degrade hook fired %d times, want 1", len(reasons))
	}
	if p.DegradedReason() != reasons[0] {
		t.Errorf("reason mismatch: %q vs hook %q", p.DegradedReason(), reasons[0])
	}
	if !strings.Contains(reasons[0], "empty else-chain") {
		t.Errorf("kept reason %q is not the first violation", reasons[0])
	}
}

// TestResetClearsDegradation verifies a degraded policy is reusable for a
// fresh run after Reset, with checking still armed.
func TestResetClearsDegradation(t *testing.T) {
	p := NewCD(SelectLevel(2), 2)
	p.Check = &CheckConfig{MaxPage: 16}
	p.Alloc(alloc("A")) // degrade
	if !p.Degraded() {
		t.Fatal("setup: expected degradation")
	}
	p.Reset()
	if p.Degraded() || p.DegradedReason() != "" {
		t.Error("Reset did not clear degradation")
	}
	if p.Check == nil {
		t.Error("Reset dropped the CheckConfig")
	}
	// Valid directives are honored again...
	p.Alloc(alloc("10", directive.Arm{PI: 1, X: 4}))
	if p.Allocation() != 4 {
		t.Errorf("allocation = %d, want 4", p.Allocation())
	}
	// ...and violations degrade again.
	p.Alloc(alloc("B"))
	if !p.Degraded() {
		t.Error("checking disarmed after Reset")
	}
}

// TestWSWarm verifies the warm handoff primitive: warmed pages count as
// resident exactly once and expire like normally referenced pages.
func TestWSWarm(t *testing.T) {
	p := NewWS(2)
	p.Warm([]mem.Page{1, 2, 1}) // duplicate must not double-count
	if p.Resident() != 2 {
		t.Fatalf("resident after warm = %d, want 2", p.Resident())
	}
	if p.Ref(1) {
		t.Error("warmed page faulted")
	}
	// One more reference ages page 2 (warmed, never re-referenced) out of
	// the τ=2 window; the re-referenced page 1 survives.
	p.Ref(3)
	if p.Resident() != 2 { // {1, 3} — page 2 expired
		t.Errorf("resident after expiry = %d, want 2", p.Resident())
	}
	if !p.Ref(2) {
		t.Error("expired warmed page did not refault")
	}
}

// TestReclaim verifies the capacity-shrink path used by the chaos
// machine-pressure fault: unlocked pages go first, then locked pages via
// forced release, and a degraded policy refuses to reclaim.
func TestReclaim(t *testing.T) {
	p := NewCD(SelectLevel(2), 2)
	p.Alloc(alloc("10", directive.Arm{PI: 1, X: 8}))
	for i := 0; i < 6; i++ {
		p.Ref(mem.Page(i))
	}
	p.Lock(trace.LockSet{PJ: 1, Site: 0, Pages: []mem.Page{0, 1}})

	if got := p.Reclaim(5); got != 5 {
		t.Fatalf("Reclaim(5) = %d, want 5", got)
	}
	if p.Resident() != 1 {
		t.Errorf("resident after reclaim = %d, want 1", p.Resident())
	}
	if p.LockReleases != 1 {
		t.Errorf("LockReleases = %d, want 1 (4 unlocked + 1 forced)", p.LockReleases)
	}
	// Reclaim beyond what is held returns what it got.
	if got := p.Reclaim(10); got != 1 {
		t.Errorf("Reclaim(10) = %d, want 1", got)
	}

	d := NewCD(SelectLevel(2), 2)
	d.Check = &CheckConfig{MaxPage: 16}
	d.Ref(0)
	d.Alloc(alloc("X")) // degrade
	if got := d.Reclaim(3); got != 0 {
		t.Errorf("degraded Reclaim = %d, want 0", got)
	}
}
