package policy

import (
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// fuzzSparseBase is where FuzzStepBlock's sparse pages start: far above
// any dense table its streams can justify, so they stay on the map path.
const fuzzSparseBase = 1 << 20

// fuzzOps decodes a byte string into a CD/LRU operation stream, one op
// per byte: the top three bits pick the kind, the low five its argument.
// The kinds reach every way a hit run can end or continue — a first
// touch, a page beyond a tiny hinted table, a sparse-map page, a block
// cut — plus re-references at any list position (head and tail among
// them) and ALLOCATE, LOCK and UNLOCK events between blocks.
func fuzzOps(data []byte) []diffOp {
	var ops []diffOp
	var hist []mem.Page // referenced pages, most recent last
	ref := func(pg mem.Page) {
		ops = append(ops, diffOp{kind: opRef, page: pg})
		hist = append(hist, pg)
	}
	// recent returns the page referenced k references back (k ≥ 1).
	recent := func(k int) mem.Page { return hist[len(hist)-1-(k-1)%len(hist)] }
	for _, b := range data {
		arg := int(b & 0x1f)
		switch b >> 5 {
		case 0, 1, 2: // a dense page, beyond the hinted table when ≥ its span
			ref(mem.Page(arg % 24))
		case 3: // re-reference: k = 1 is a head hit, larger k walk toward the tail
			if len(hist) > 0 {
				ref(recent(1 + arg))
			}
		case 4: // a sparse-map page
			ref(fuzzSparseBase + mem.Page(arg%8))
		case 5: // end the block here
			ops = append(ops, diffOp{kind: opCut})
		case 6: // ALLOCATE with a 1-3 arm else-chain, outermost first
			nArms := 1 + arg%3
			arms := make([]directive.Arm, nArms)
			x := 1 + arg/3
			for j := range arms {
				arms[j] = directive.Arm{PI: nArms - j, X: x}
				x = max(1, x-1-j)
			}
			ops = append(ops, diffOp{kind: opAlloc, alloc: trace.AllocDirective{Label: "L", Arms: arms}})
		case 7: // LOCK (even arg) or UNLOCK (odd) of up to three recent pages
			if len(hist) == 0 {
				continue
			}
			ps := make([]mem.Page, 1+(arg>>1)%3)
			for j := range ps {
				ps[j] = recent(1 + j + arg>>3)
			}
			if arg&1 == 0 {
				ops = append(ops, diffOp{kind: opLock, lock: trace.LockSet{PJ: 1 + (arg>>2)%4, Site: (arg >> 3) % 3, Pages: ps}})
			} else {
				ops = append(ops, diffOp{kind: opUnlock, unlock: ps})
			}
		}
	}
	return ops
}

// FuzzStepBlock checks CD's and LRU's block stepping over arbitrary
// block splits against StepRef per page and against the map oracles:
// faults, the whole BlockResult and the eviction-hook order must agree,
// and for CD the lock and swap counters too. The two block-stepped
// instances get a tiny page hint, so runs also stop at pages beyond
// the hinted table; the single-stepped one and the oracle get none. At
// the end the block-stepped and single-stepped lists must hold the
// oracle's pages in its order (checkRing).
// The first byte picks the policy, the second the hint, the rest are
// ops (fuzzOps).
func FuzzStepBlock(f *testing.F) {
	// Cyclic sweeps of a fully resident window: tail hits.
	f.Add([]byte{6, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0xa0, 0, 1, 2, 3})
	f.Add([]byte{1, 3, 0xcf, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	// Longer rotations: an 8-page sweep at LRU m=8, cut mid-cycle; a
	// one-page LRU ring; a 5-page CD sweep whose two LRU pages get
	// locked, then rotate, sit at the tail through a shrinking
	// ALLOCATE and unlock; and a 5-page sweep at m=4, which misses on
	// every reference at the ring's ends.
	f.Add([]byte{14, 63, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0xa0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 0xa0, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0xa0, 1, 0, 2, 2})
	f.Add([]byte{1, 39, 0xcc, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0xfa, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0xc3, 0, 1, 2, 3, 4, 0xfb, 0, 1, 2, 3, 4})
	f.Add([]byte{6, 36, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4})
	// Head hits, a sparse page mid-run, and pages beyond the hint.
	f.Add([]byte{3, 2, 5, 0x60, 0x60, 0x80, 0x60, 20, 21, 0x61, 0x80, 5, 0x60})
	// Locks held across a shrinking ALLOCATE, forced lock releases.
	f.Add([]byte{5, 7, 0xcf, 1, 2, 3, 4, 0xe0, 0xe4, 0xc0, 5, 6, 7, 8, 0xe1, 9, 0x62, 0xa0, 1})
	f.Add([]byte{0, 0, 0x81, 0x82, 0x81, 0x63, 0xa0, 0x81, 0, 0x80, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		var mk, mkOracle func() Policy
		if sel := int(data[0]); sel&1 == 0 {
			m := 1 + (sel>>1)%8
			mk = func() Policy { return NewLRU(m) }
			mkOracle = func() Policy { return newOracleLRU(m) }
		} else {
			lvl := 1 + (sel>>1)%3
			mk = func() Policy { return NewCD(SelectLevel(lvl), 2) }
			mkOracle = func() Policy { return newOracleCD(SelectLevel(lvl), 2) }
		}
		blocked, bare, stepped, oracle := mk(), mk(), mk(), mkOracle()
		maxPage, distinct := mem.Page(data[1]%8), 1+int(data[1]>>3)%8
		blocked.(PageHinter).HintPages(maxPage, distinct)
		bare.(PageHinter).HintPages(maxPage, distinct)
		runBlockDiff(t, blocked, bare, stepped, oracle, fuzzOps(data[2:]), 0, "fuzz")
		for _, p := range []Policy{blocked, stepped} {
			l, ol := listOf(p, oracle)
			checkRing(t, l, ol, "fuzz: final list")
		}

		cd, ok := blocked.(*CD)
		if !ok {
			return
		}
		scd, ocd := stepped.(*CD), oracle.(*oracleCD)
		if cd.SwapSignals != scd.SwapSignals || cd.LockReleases != scd.LockReleases || cd.LockedPages() != scd.LockedPages() {
			t.Fatalf("CD counters: block (swap %d, releases %d, locked %d) != step (%d, %d, %d)",
				cd.SwapSignals, cd.LockReleases, cd.LockedPages(), scd.SwapSignals, scd.LockReleases, scd.LockedPages())
		}
		if cd.LockReleases != ocd.LockReleases || cd.LockedPages() != ocd.locked {
			t.Fatalf("CD counters: block (releases %d, locked %d) != oracle (%d, %d)",
				cd.LockReleases, cd.LockedPages(), ocd.LockReleases, ocd.locked)
		}
		if err := cd.AuditLocks(); err != nil {
			t.Fatalf("block-stepped CD lock audit: %v", err)
		}
	})
}
