package policy

import (
	"testing"
	"testing/quick"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// replay runs a page string through a policy and returns total faults.
func replay(p Policy, refs []mem.Page) int {
	faults := 0
	for _, pg := range refs {
		if p.Ref(pg) {
			faults++
		}
	}
	return faults
}

// cyclic builds the classic sequential cyclic reference string
// 1..n, 1..n, ... for rounds rounds.
func cyclic(n, rounds int) []mem.Page {
	var out []mem.Page
	for r := 0; r < rounds; r++ {
		for i := 1; i <= n; i++ {
			out = append(out, mem.Page(i))
		}
	}
	return out
}

func TestLRUBasics(t *testing.T) {
	p := NewLRU(2)
	refs := []mem.Page{1, 2, 1, 3, 2}
	// 1:F 2:F 1:H 3:F(evict 2) 2:F(evict 1)
	wantFaults := []bool{true, true, false, true, true}
	for i, pg := range refs {
		if got := p.Ref(pg); got != wantFaults[i] {
			t.Errorf("ref %d (page %d): fault = %v, want %v", i, pg, got, wantFaults[i])
		}
	}
	if p.Resident() != 2 {
		t.Errorf("resident = %d, want 2", p.Resident())
	}
}

func TestLRUCyclicThrash(t *testing.T) {
	// Sequential cyclic string over n pages with m < n frames: LRU faults
	// on every reference (the classic worst case).
	p := NewLRU(3)
	faults := replay(p, cyclic(4, 5))
	if faults != 20 {
		t.Errorf("faults = %d, want 20 (every reference)", faults)
	}
	// With m >= n only the first round faults.
	p2 := NewLRU(4)
	faults = replay(p2, cyclic(4, 5))
	if faults != 4 {
		t.Errorf("faults = %d, want 4", faults)
	}
}

// TestLRUInclusionProperty property-tests LRU's stack property: for any
// reference string, faults are non-increasing in the allocation.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		refs := make([]mem.Page, len(raw))
		for i, b := range raw {
			refs[i] = mem.Page(b % 16)
		}
		prev := -1
		for m := 1; m <= 17; m++ {
			faults := replay(NewLRU(m), refs)
			if prev >= 0 && faults > prev {
				return false
			}
			prev = faults
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFIFOBeladyAnomalyString(t *testing.T) {
	// The canonical Belady anomaly string faults more with 4 frames than 3
	// under FIFO — demonstrating FIFO is not a stack algorithm.
	s := []mem.Page{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}
	f3 := replay(NewFIFO(3), s)
	f4 := replay(NewFIFO(4), s)
	if f3 != 9 || f4 != 10 {
		t.Errorf("FIFO faults = %d/%d, want 9/10 (Belady anomaly)", f3, f4)
	}
}

func TestWSWindowSemantics(t *testing.T) {
	p := NewWS(2)
	// t=1: ref 1 -> fault, W={1}
	// t=2: ref 2 -> fault, W={1,2}
	// t=3: ref 3 -> fault; 1 expired (last ref t=1 <= 3-2), W={2,3}
	// t=4: ref 1 -> fault again (left the window)
	faults := []bool{true, true, true, true}
	for i, pg := range []mem.Page{1, 2, 3, 1} {
		if got := p.Ref(pg); got != faults[i] {
			t.Errorf("ref %d: fault = %v, want %v", i, got, faults[i])
		}
	}
	if p.Resident() != 2 { // W = {3, 1}
		t.Errorf("resident = %d, want 2", p.Resident())
	}
}

func TestWSRepeatedPageStaysResident(t *testing.T) {
	p := NewWS(3)
	faults := replay(p, []mem.Page{7, 7, 7, 7, 7, 7})
	if faults != 1 {
		t.Errorf("faults = %d, want 1", faults)
	}
	if p.Resident() != 1 {
		t.Errorf("resident = %d, want 1", p.Resident())
	}
}

// TestWSMonotoneInTau property-tests that WS faults are non-increasing
// and average WS size non-decreasing in τ.
func TestWSMonotoneInTau(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		refs := make([]mem.Page, len(raw))
		for i, b := range raw {
			refs[i] = mem.Page(b % 8)
		}
		prevFaults := -1
		prevSize := -1.0
		for _, tau := range []int{1, 2, 4, 8, 16, 32, 64} {
			p := NewWS(tau)
			faults := 0
			sizeSum := 0.0
			for _, pg := range refs {
				if p.Ref(pg) {
					faults++
				}
				sizeSum += float64(p.Resident())
			}
			if prevFaults >= 0 && faults > prevFaults {
				return false
			}
			if prevSize >= 0 && sizeSum < prevSize-1e-9 {
				return false
			}
			prevFaults = faults
			prevSize = sizeSum
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOPTOptimality(t *testing.T) {
	// OPT never faults more than LRU or FIFO for any string/allocation.
	f := func(raw []uint8, mRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		refs := make([]mem.Page, len(raw))
		for i, b := range raw {
			refs[i] = mem.Page(b % 12)
		}
		m := int(mRaw)%8 + 1
		fOpt := replay(NewOPT(refs, m), refs)
		fLRU := replay(NewLRU(m), refs)
		fFIFO := replay(NewFIFO(m), refs)
		return fOpt <= fLRU && fOpt <= fFIFO
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOPTKnownString(t *testing.T) {
	// Classic example: 7 0 1 2 0 3 0 4 2 3 0 3 2 with 3 frames -> 9 faults
	// under OPT (textbook result).
	s := []mem.Page{7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2}
	if f := replay(NewOPT(s, 3), s); f != 7 {
		// 7,0,1 fault; 2 evicts 7; 0 hit; 3 evicts 1; 0 hit; 4 evicts 0;
		// 2 hit; 3 hit; 0 faults (evicts 4); 3 hit; 2 hit => 7 faults.
		t.Errorf("OPT faults = %d, want 7", f)
	}
}

func TestOPTOutOfOrderPanics(t *testing.T) {
	s := []mem.Page{1, 2, 3}
	p := NewOPT(s, 2)
	p.Ref(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-order replay")
		}
	}()
	p.Ref(3) // should be 2
}

func TestCDAllocGrowAndShrink(t *testing.T) {
	cd := NewCD(SelectLevel(1), 1)
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 3}}})
	if cd.Allocation() != 3 {
		t.Fatalf("alloc = %d, want 3", cd.Allocation())
	}
	// Fill 3 pages.
	for _, pg := range []mem.Page{1, 2, 3} {
		if !cd.Ref(pg) {
			t.Errorf("page %d should fault", pg)
		}
	}
	if cd.Resident() != 3 {
		t.Fatalf("resident = %d", cd.Resident())
	}
	// Shrink to 1: evicts LRU pages 1 and 2.
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 1}}})
	if cd.Resident() != 1 {
		t.Errorf("resident after shrink = %d, want 1", cd.Resident())
	}
	if cd.Ref(3) {
		t.Error("page 3 (MRU) should have survived the shrink")
	}
	if !cd.Ref(1) {
		t.Error("page 1 should have been evicted")
	}
}

func TestCDLocalLRUWithinAllocation(t *testing.T) {
	cd := NewCD(SelectLevel(1), 1)
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 2}}})
	cd.Ref(1)
	cd.Ref(2)
	cd.Ref(1) // 1 is MRU
	cd.Ref(3) // evicts 2
	if cd.Ref(1) {
		t.Error("1 should be resident")
	}
	if !cd.Ref(2) {
		t.Error("2 should have been evicted")
	}
}

func TestCDSelectLevel(t *testing.T) {
	arms := []directive.Arm{{PI: 3, X: 100}, {PI: 2, X: 40}, {PI: 1, X: 5}}
	cases := []struct{ level, want int }{
		{1, 5},   // innermost stratum: the loop's own locality
		{2, 40},  // middle
		{3, 100}, // outermost
		{4, 100}, // above Δ: the outermost arm still has PI <= level
	}
	for _, c := range cases {
		got, ok := SelectLevel(c.level)("", arms)
		if !ok {
			t.Fatalf("SelectLevel(%d): directive skipped, want granted", c.level)
		}
		if got.X != c.want {
			t.Errorf("SelectLevel(%d) = %d, want %d", c.level, got.X, c.want)
		}
	}
	// A directive whose own loop sits above the honored stratum does not
	// execute: honoring level 2 skips a directive of an outer PI=3 loop.
	if _, ok := SelectLevel(2)("", []directive.Arm{{PI: 4, X: 90}, {PI: 3, X: 80}}); ok {
		t.Error("directive of a PI=3 loop should not execute in the level-2 set")
	}
}

func TestCDLocksPreventEviction(t *testing.T) {
	cd := NewCD(SelectLevel(1), 1)
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 1}}})
	cd.Ref(1)
	cd.Lock(trace.LockSet{PJ: 2, Site: 0, Pages: []mem.Page{1}})
	cd.Ref(2) // locked 1 rides above the allocation; 2 fills the one frame
	cd.Ref(3) // must evict 2, not locked 1
	if cd.Ref(1) {
		t.Error("locked page 1 was evicted")
	}
	if !cd.Ref(2) {
		t.Error("page 2 should have been evicted instead of locked 1")
	}
}

func TestCDLockedPagesRideAboveAllocation(t *testing.T) {
	// ALLOCATE X sizes the loop's own locality; LOCK pins outer-loop
	// pages on top of it. With X = 2 and one locked page, the two-page
	// alternating pattern must not thrash.
	cd := NewCD(SelectLevel(1), 1)
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 2}}})
	cd.Ref(10)
	cd.Lock(trace.LockSet{PJ: 2, Site: 0, Pages: []mem.Page{10}})
	cd.Ref(1)
	cd.Ref(2)
	faults := 0
	for i := 0; i < 10; i++ {
		if cd.Ref(1) {
			faults++
		}
		if cd.Ref(2) {
			faults++
		}
	}
	if faults != 0 {
		t.Errorf("alternating pattern faulted %d times with a locked page above the allocation", faults)
	}
	if cd.Resident() != 3 {
		t.Errorf("resident = %d, want 3 (2 allocated + 1 locked)", cd.Resident())
	}

	// A miss with every resident page locked, at the one-page minimum
	// allocation, evicts nothing and releases nothing: the new page
	// joins the locked ones.
	full := NewCD(SelectLevel(1), 1)
	full.Ref(1)
	full.Lock(trace.LockSet{PJ: 2, Site: 0, Pages: []mem.Page{1}})
	full.Ref(2)
	full.Lock(trace.LockSet{PJ: 3, Site: 1, Pages: []mem.Page{2}})
	evicted := 0
	full.SetEvictHook(func(mem.Page) { evicted++ })
	if !full.Ref(3) {
		t.Fatal("page 3 hit before it was referenced")
	}
	if evicted != 0 || full.LockReleases != 0 || full.Resident() != 3 || full.LockedPages() != 2 {
		t.Errorf("miss over an all-locked set: evicted %d, lock releases %d, resident %d, locked %d; want 0, 0, 3, 2",
			evicted, full.LockReleases, full.Resident(), full.LockedPages())
	}
}

func TestCDForceReleaseOrder(t *testing.T) {
	cd := NewCD(SelectLevel(1), 1)
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 2}}})
	cd.Ref(1)
	cd.Ref(2)
	// Lock both resident pages with different priorities.
	cd.Lock(trace.LockSet{PJ: 2, Site: 0, Pages: []mem.Page{1}})
	cd.Lock(trace.LockSet{PJ: 3, Site: 1, Pages: []mem.Page{2}})
	// The OS reclaims one page: the lowest-priority lock (largest PJ).
	if n := cd.ForceRelease(1); n != 1 {
		t.Fatalf("released = %d, want 1", n)
	}
	if cd.LockReleases != 1 {
		t.Errorf("lock releases = %d, want 1", cd.LockReleases)
	}
	if cd.Ref(1) {
		t.Error("higher-priority locked page 1 was released")
	}
	if !cd.Ref(2) {
		t.Error("page 2 should have been the released one")
	}
	// Releasing more than exists stops at the lock count.
	cd.Lock(trace.LockSet{PJ: 4, Site: 2, Pages: []mem.Page{1}})
	if n := cd.ForceRelease(5); n != 1 {
		t.Errorf("released = %d, want 1", n)
	}
}

func TestCDSiteRelockReplacesOldLocks(t *testing.T) {
	cd := NewCD(SelectLevel(1), 1)
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 2}}})
	cd.Ref(1)
	cd.Lock(trace.LockSet{PJ: 2, Site: 5, Pages: []mem.Page{1}})
	if cd.LockedPages() != 1 {
		t.Fatalf("locked = %d, want 1", cd.LockedPages())
	}
	cd.Ref(2)
	// Same site locks page 2 now: page 1's lock must drop.
	cd.Lock(trace.LockSet{PJ: 2, Site: 5, Pages: []mem.Page{2}})
	if cd.LockedPages() != 1 {
		t.Errorf("locked = %d, want 1 after site relock", cd.LockedPages())
	}
	cd.Ref(3)
	cd.Ref(4) // unlocked {1,3} at the allocation: evicts LRU unlocked page 1
	if !cd.Ref(1) {
		t.Error("page 1 should be evictable after its site relocked elsewhere")
	}
}

func TestCDUnlock(t *testing.T) {
	cd := NewCD(SelectLevel(1), 1)
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 2}}})
	cd.Ref(1)
	cd.Lock(trace.LockSet{PJ: 2, Site: 0, Pages: []mem.Page{1}})
	cd.Unlock([]mem.Page{1})
	cd.Ref(2)
	cd.Ref(3) // evicts 1 (now unlocked, LRU)
	if !cd.Ref(1) {
		t.Error("page 1 should have been evicted after UNLOCK")
	}
	if cd.LockedPages() != 0 {
		t.Errorf("locked = %d, want 0", cd.LockedPages())
	}
}

func TestCDAvailableFigure6(t *testing.T) {
	avail := 10
	cd := NewCD(SelectLevel(3), 1)
	cd.Avail = func() int { return avail }

	// Chain (3,100) else (2,40) else (1,5): only the innermost fits.
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 3, X: 100}, {PI: 2, X: 40}, {PI: 1, X: 5}}})
	if cd.Allocation() != 5 {
		t.Errorf("alloc = %d, want 5 (fall through the else-chain)", cd.Allocation())
	}
	if cd.SwapSignals != 0 {
		t.Errorf("swap signals = %d, want 0", cd.SwapSignals)
	}

	// Nothing fits and innermost PI is 1: swap signal, allocation holds.
	avail = 2
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 2, X: 40}, {PI: 1, X: 5}}})
	if cd.SwapSignals != 1 {
		t.Errorf("swap signals = %d, want 1", cd.SwapSignals)
	}
	if cd.Allocation() != 5 {
		t.Errorf("alloc = %d, want unchanged 5", cd.Allocation())
	}

	// Nothing fits but innermost PI > 1: continue, no swap.
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 3, X: 40}, {PI: 2, X: 30}}})
	if cd.SwapSignals != 1 {
		t.Errorf("swap signals = %d, want still 1", cd.SwapSignals)
	}
}

func TestCDReset(t *testing.T) {
	cd := NewCD(SelectLevel(1), 2)
	cd.Alloc(trace.AllocDirective{Arms: []directive.Arm{{PI: 1, X: 7}}})
	cd.Ref(1)
	cd.Lock(trace.LockSet{PJ: 2, Site: 0, Pages: []mem.Page{1}})
	cd.Reset()
	if cd.Resident() != 0 || cd.Allocation() != 2 || cd.LockedPages() != 0 {
		t.Errorf("reset incomplete: resident=%d alloc=%d locked=%d", cd.Resident(), cd.Allocation(), cd.LockedPages())
	}
}

func TestResetAllPolicies(t *testing.T) {
	refs := cyclic(5, 2)
	pols := []Policy{NewLRU(3), NewFIFO(3), NewWS(4), NewOPT(refs, 3), NewCD(nil, 2)}
	for _, p := range pols {
		f1 := replay(p, refs)
		p.Reset()
		f2 := replay(p, refs)
		if f1 != f2 {
			t.Errorf("%s: faults differ after reset: %d vs %d", p.Name(), f1, f2)
		}
	}
}
