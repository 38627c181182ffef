package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// Randomized differential tests: every dense slot-array policy is driven
// in lockstep with its map-based oracle (oracle_test.go) over generated
// operation streams — references with locality plus wild sparse pages,
// and ALLOCATE/LOCK/UNLOCK directives for CD — asserting identical fault,
// Resident and Charge values after every single operation, across Reset
// reuse, and through the StepRef helper.

const (
	opRef = iota
	opAlloc
	opLock
	opUnlock
	// opCut ends the current block without a directive (block-stepping
	// streams only; the per-reference paths ignore it).
	opCut
)

type diffOp struct {
	kind   int
	page   mem.Page
	alloc  trace.AllocDirective
	lock   trace.LockSet
	unlock []mem.Page
}

// genPages builds a page universe: a contiguous dense core plus a few
// wild sparse page numbers that must take the pageIndex map path.
func genPages(r *rand.Rand, distinct int) []mem.Page {
	pages := make([]mem.Page, distinct)
	for i := range pages {
		pages[i] = mem.Page(i)
	}
	for i := 0; i < 3; i++ {
		pages = append(pages, mem.Page(1<<20+r.Intn(1<<12)))
	}
	return pages
}

// pickPage mixes locality (a sliding cluster) with uniform jumps so the
// streams exercise both hit-heavy and fault-heavy regimes.
func pickPage(r *rand.Rand, pages []mem.Page, base int) (mem.Page, int) {
	if r.Intn(10) == 0 {
		base = r.Intn(len(pages))
	}
	if r.Intn(10) < 7 {
		return pages[(base+r.Intn(8))%len(pages)], base
	}
	return pages[r.Intn(len(pages))], base
}

func genOps(r *rand.Rand, n int, pages []mem.Page, withDirectives bool) []diffOp {
	ops := make([]diffOp, 0, n)
	base := 0
	for i := 0; i < n; i++ {
		if withDirectives && r.Intn(12) == 0 {
			switch r.Intn(3) {
			case 0: // ALLOCATE with a 1-3 arm else-chain, outermost first
				nArms := 1 + r.Intn(3)
				arms := make([]directive.Arm, nArms)
				x := 2 + r.Intn(10) + 3*nArms
				for j := 0; j < nArms; j++ {
					arms[j] = directive.Arm{PI: nArms - j, X: x}
					x -= 1 + r.Intn(3)
					if x < 1 {
						x = 1
					}
				}
				ops = append(ops, diffOp{kind: opAlloc, alloc: trace.AllocDirective{
					Label: fmt.Sprintf("L%d", r.Intn(5)), Arms: arms,
				}})
			case 1:
				ps := make([]mem.Page, 1+r.Intn(4))
				for j := range ps {
					ps[j] = pages[r.Intn(len(pages))]
				}
				ops = append(ops, diffOp{kind: opLock, lock: trace.LockSet{
					PJ: 1 + r.Intn(4), Site: r.Intn(4), Pages: ps,
				}})
			case 2:
				ps := make([]mem.Page, 1+r.Intn(4))
				for j := range ps {
					ps[j] = pages[r.Intn(len(pages))]
				}
				ops = append(ops, diffOp{kind: opUnlock, unlock: ps})
			}
			continue
		}
		var pg mem.Page
		pg, base = pickPage(r, pages, base)
		ops = append(ops, diffOp{kind: opRef, page: pg})
	}
	return ops
}

// runDiff drives dense and oracle over the same stream, comparing after
// every operation. useStep additionally routes dense references through
// the StepRef helper and checks its fault, resident peak and charge
// against the oracle.
func runDiff(t *testing.T, dense, oracle Policy, ops []diffOp, useStep bool, tag string) {
	t.Helper()
	for i, op := range ops {
		switch op.kind {
		case opRef:
			if useStep {
				var acc BlockResult
				fault, chg := StepRef(dense, op.page, &acc)
				res := acc.MaxResident
				if of := oracle.Ref(op.page); fault != of {
					t.Fatalf("%s: op %d ref %d: fault dense=%v oracle=%v", tag, i, op.page, fault, of)
				}
				if res != oracle.Resident() || chg != Charge(oracle) {
					t.Fatalf("%s: op %d ref %d: StepRef (res=%d chg=%d) != oracle (res=%d chg=%d)",
						tag, i, op.page, res, chg, oracle.Resident(), Charge(oracle))
				}
			} else if df, of := dense.Ref(op.page), oracle.Ref(op.page); df != of {
				t.Fatalf("%s: op %d ref %d: fault dense=%v oracle=%v", tag, i, op.page, df, of)
			}
		case opAlloc:
			dense.Alloc(op.alloc)
			oracle.Alloc(op.alloc)
		case opLock:
			dense.Lock(op.lock)
			oracle.Lock(op.lock)
		case opUnlock:
			dense.Unlock(op.unlock)
			oracle.Unlock(op.unlock)
		}
		if dr, or := dense.Resident(), oracle.Resident(); dr != or {
			t.Fatalf("%s: op %d: Resident dense=%d oracle=%d", tag, i, dr, or)
		}
		if dc, oc := Charge(dense), Charge(oracle); dc != oc {
			t.Fatalf("%s: op %d: Charge dense=%d oracle=%d", tag, i, dc, oc)
		}
		if cd, ok := dense.(*CD); ok {
			ocd := oracle.(*oracleCD)
			if cd.SwapSignals != ocd.SwapSignals || cd.LockReleases != ocd.LockReleases {
				t.Fatalf("%s: op %d: CD counters dense=(%d,%d) oracle=(%d,%d)",
					tag, i, cd.SwapSignals, cd.LockReleases, ocd.SwapSignals, ocd.LockReleases)
			}
			if cd.LockedPages() != ocd.locked {
				t.Fatalf("%s: op %d: LockedPages dense=%d oracle=%d", tag, i, cd.LockedPages(), ocd.locked)
			}
		}
	}
}

type diffCase struct {
	name       string
	dense      func() Policy
	oracle     func() Policy
	directives bool
}

func diffCases() []diffCase {
	var cases []diffCase
	for _, m := range []int{1, 4, 8, 32} {
		m := m
		cases = append(cases,
			diffCase{fmt.Sprintf("LRU/m=%d", m), func() Policy { return NewLRU(m) }, func() Policy { return newOracleLRU(m) }, false},
			diffCase{fmt.Sprintf("FIFO/m=%d", m), func() Policy { return NewFIFO(m) }, func() Policy { return newOracleFIFO(m) }, false},
		)
	}
	for _, tau := range []int{1, 7, 50, 400} {
		tau := tau
		cases = append(cases,
			diffCase{fmt.Sprintf("WS/tau=%d", tau), func() Policy { return NewWS(tau) }, func() Policy { return newOracleWS(tau) }, false})
	}
	for _, th := range []int{1, 10, 100} {
		th := th
		cases = append(cases,
			diffCase{fmt.Sprintf("PFF/T=%d", th), func() Policy { return NewPFF(th) }, func() Policy { return newOraclePFF(th) }, false})
	}
	for _, sg := range []int{1, 25} {
		sg := sg
		cases = append(cases,
			diffCase{fmt.Sprintf("SWS/sigma=%d", sg), func() Policy { return NewSWS(sg) }, func() Policy { return newOracleSWS(sg) }, false})
	}
	cases = append(cases,
		diffCase{"VSWS", func() Policy { return NewVSWS(5, 50, 3) }, func() Policy { return newOracleVSWS(5, 50, 3) }, false},
		diffCase{"DWS/tau=30,d=10", func() Policy { return NewDWS(30, 10) }, func() Policy { return newOracleDWS(30, 10) }, false},
		diffCase{"DWS/tau=7,d=1", func() Policy { return NewDWS(7, 1) }, func() Policy { return newOracleDWS(7, 1) }, false},
	)
	for _, lvl := range []int{1, 2, 3} {
		lvl := lvl
		cases = append(cases, diffCase{
			fmt.Sprintf("CD/level=%d", lvl),
			func() Policy { return NewCD(SelectLevel(lvl), 2) },
			func() Policy { return newOracleCD(SelectLevel(lvl), 2) },
			true,
		})
	}
	return cases
}

// TestDenseMatchesOracle is the core differential: dense vs oracle over
// several seeded random streams, via both the Ref and the StepRef paths.
func TestDenseMatchesOracle(t *testing.T) {
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				r := rand.New(rand.NewSource(seed))
				pages := genPages(r, 20+r.Intn(40))
				ops := genOps(r, 3000, pages, tc.directives)
				runDiff(t, tc.dense(), tc.oracle(), ops, false, fmt.Sprintf("seed=%d/Ref", seed))
				runDiff(t, tc.dense(), tc.oracle(), ops, true, fmt.Sprintf("seed=%d/Step", seed))
			}
		})
	}
}

// TestDenseResetReuse asserts Reset returns a used dense policy to the
// exact fresh-policy behavior: replay stream A, Reset, then replay stream
// B against a *fresh* oracle.
func TestDenseResetReuse(t *testing.T) {
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(99))
			pages := genPages(r, 30)
			opsA := genOps(r, 2000, pages, tc.directives)
			opsB := genOps(r, 2000, genPages(r, 50), tc.directives)

			dense := tc.dense()
			runDiff(t, dense, tc.oracle(), opsA, false, "A")
			dense.Reset()
			runDiff(t, dense, tc.oracle(), opsB, false, "B-after-Reset")
		})
	}
}

// TestPageIndexWildSparsity is the sparsity guard: a stream whose pages
// are wildly sparse (near 2^30) must not balloon the dense table to a
// MaxPage-sized array — wild pages take the compact map path.
func TestPageIndexWildSparsity(t *testing.T) {
	var idx pageIndex
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		idx.slot(mem.Page(1<<30 + r.Intn(1<<20)))
	}
	if len(idx.dense) > pageIndexMinDense {
		t.Fatalf("dense table grew to %d entries on wild pages (want <= %d)", len(idx.dense), pageIndexMinDense)
	}
	if idx.size() != len(idx.pages) || idx.size() == 0 {
		t.Fatalf("slot accounting broken: size=%d", idx.size())
	}
	// Every wild page must still resolve through the sparse map.
	for s, pg := range idx.pages {
		if got := idx.lookup(pg); got != int32(s) {
			t.Fatalf("lookup(%d)=%d, want %d", pg, got, s)
		}
	}
	// A hint describing a wild universe is ignored, not honored.
	idx.hint(1<<30, 10)
	if len(idx.dense) > pageIndexMinDense {
		t.Fatalf("wild hint grew dense table to %d entries", len(idx.dense))
	}
	// Dense pages arriving later still get dense-table service.
	s := idx.slot(5)
	if got := idx.lookup(5); got != s {
		t.Fatalf("dense page lookup=%d, want %d", got, s)
	}
}

// TestPageIndexSparseThenDenseGrowth reproduces the duplicate-slot
// hazard: a page first assigned via the sparse path (out of the window at
// the time) must keep its slot after growDense's doubling extends the
// dense table past it.
func TestPageIndexSparseThenDenseGrowth(t *testing.T) {
	var idx pageIndex
	s2000 := idx.slot(2000) // beyond pageIndexMinDense -> sparse path
	for p := 0; p <= 999; p++ {
		idx.slot(mem.Page(p)) // dense table settles at 1024
	}
	idx.slot(1500) // in window now -> doubling grows dense over page 2000
	if len(idx.dense) < 2001 {
		t.Fatalf("dense table is %d entries, expected growth past page 2000", len(idx.dense))
	}
	if got := idx.slot(2000); got != s2000 {
		t.Fatalf("page 2000 re-assigned slot %d after dense growth, want original %d", got, s2000)
	}
	if idx.size() != 1002 {
		t.Fatalf("size=%d, want 1002 distinct pages", idx.size())
	}
	for s, pg := range idx.pages {
		if got := idx.lookup(pg); got != int32(s) {
			t.Fatalf("lookup(%d)=%d, want %d", pg, got, s)
		}
	}
}

// TestPageIndexHintAfterSparse covers Reset-style reuse: a page assigned
// sparsely in one run must survive a later HintPages-driven growth that
// covers it densely.
func TestPageIndexHintAfterSparse(t *testing.T) {
	var idx pageIndex
	s2000 := idx.slot(2000)
	s5 := idx.slot(5)
	idx.hint(4096, 600) // next trace's universe covers page 2000 in-window
	if len(idx.dense) < 2001 {
		t.Fatalf("dense table is %d entries, expected hint growth past page 2000", len(idx.dense))
	}
	if got := idx.slot(2000); got != s2000 {
		t.Fatalf("page 2000 re-assigned slot %d after hint, want original %d", got, s2000)
	}
	if got := idx.slot(5); got != s5 {
		t.Fatalf("page 5 slot drifted to %d after hint, want %d", got, s5)
	}
	if idx.size() != 2 {
		t.Fatalf("size=%d, want 2", idx.size())
	}
}

// overlapOps builds a stream that walks straight through the
// sparse-then-dense overlap window: mid-range pages (a few x the initial
// dense table, well inside what growth can reach) are touched first and
// take the sparse path, then a sequential sweep of low pages doubles the
// dense table across them, then the mid-range pages are revisited while
// still resident, and a random tail mixes the full universe.
func overlapOps(r *rand.Rand, withDirectives bool) []diffOp {
	midPages := []mem.Page{1500, 2000, 3000, 4090}
	var ops []diffOp
	for _, pg := range midPages {
		ops = append(ops, diffOp{kind: opRef, page: pg})
	}
	for p := 0; p < 1200; p++ {
		ops = append(ops, diffOp{kind: opRef, page: mem.Page(p)})
	}
	for _, pg := range midPages {
		ops = append(ops, diffOp{kind: opRef, page: pg})
	}
	all := append([]mem.Page{0, 1, 5, 700, 1100}, midPages...)
	return append(ops, genOps(r, 2000, all, withDirectives)...)
}

// TestPolicySparseDenseOverlap is the policy-level differential for the
// overlap window. Capacities are sized so the mid-range pages are still
// resident when revisited after the growth — a duplicate slot then shows
// up as a spurious fault or a Resident drift against the oracle.
func TestPolicySparseDenseOverlap(t *testing.T) {
	cases := []diffCase{
		{"LRU/m=4000", func() Policy { return NewLRU(4000) }, func() Policy { return newOracleLRU(4000) }, false},
		{"FIFO/m=4000", func() Policy { return NewFIFO(4000) }, func() Policy { return newOracleFIFO(4000) }, false},
		{"WS/tau=100000", func() Policy { return NewWS(100000) }, func() Policy { return newOracleWS(100000) }, false},
		{"PFF/T=100000", func() Policy { return NewPFF(100000) }, func() Policy { return newOraclePFF(100000) }, false},
		{"SWS/sigma=100000", func() Policy { return NewSWS(100000) }, func() Policy { return newOracleSWS(100000) }, false},
		{"CD/level=2", func() Policy { return NewCD(SelectLevel(2), 2) }, func() Policy { return newOracleCD(SelectLevel(2), 2) }, true},
	}
	cases = append(cases, diffCases()...)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(23))
			ops := overlapOps(r, tc.directives)
			runDiff(t, tc.dense(), tc.oracle(), ops, false, "overlap/Ref")
			runDiff(t, tc.dense(), tc.oracle(), overlapOps(r, tc.directives), true, "overlap/Step")
		})
	}
}

// TestPolicyHintAfterSparseReuse drives a policy through a run small
// enough to leave its mid-range pages on the sparse path, Resets it,
// hints a universe that covers those pages densely, and replays against
// a fresh oracle — the engine's Reset-reuse pattern.
func TestPolicyHintAfterSparseReuse(t *testing.T) {
	universe := []mem.Page{0, 1, 2, 5, 9, 1500, 2000, 3000, 4090}
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(31))
			dense := tc.dense()
			runDiff(t, dense, tc.oracle(), genOps(r, 1500, universe, tc.directives), false, "pre-hint")
			dense.Reset()
			if h, ok := dense.(PageHinter); ok {
				h.HintPages(4096, 600)
			}
			runDiff(t, dense, tc.oracle(), overlapOps(r, tc.directives), false, "post-hint")
		})
	}
}

// TestPolicyWildPages drives each dense policy over a stream dominated by
// wild sparse pages and checks behavior still matches the oracle — the
// sparsity fallback must be semantically invisible.
func TestPolicyWildPages(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pages := make([]mem.Page, 0, 24)
	for i := 0; i < 16; i++ {
		pages = append(pages, mem.Page(1<<30+r.Intn(1<<24)))
	}
	for i := 0; i < 8; i++ {
		pages = append(pages, mem.Page(i))
	}
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ops := genOps(r, 1500, pages, tc.directives)
			runDiff(t, tc.dense(), tc.oracle(), ops, false, "wild")
		})
	}
}

// TestRecycledListHintCoversUnseenPages hints a recycled list: its slots
// still hold the pages of the trace it replayed before, so the hint for
// the next trace must reserve that trace's unseen pages on top of them.
// Admitting them then grows neither the slot array nor the page index,
// and a replay of the same trace reserves nothing more.
func TestRecycledListHintCoversUnseenPages(t *testing.T) {
	l := newLRUList()
	admit := func(lo, hi mem.Page) {
		l.reset()
		held := l.idx.size()
		l.hint(hi, int(hi-lo)+1)
		slots, pages := cap(l.slots), cap(l.idx.pages)
		for p := lo; p <= hi; p++ {
			l.insert(p)
		}
		if cap(l.slots) != slots || cap(l.idx.pages) != pages {
			t.Errorf("pages %d..%d on a list holding %d: admitting them regrew the slots from %d to %d and the page index from %d to %d",
				lo, hi, held, slots, cap(l.slots), pages, cap(l.idx.pages))
		}
	}
	admit(0, 9)   // a fresh list
	admit(10, 39) // every page unseen
	admit(5, 60)  // some seen, some not
	before := cap(l.slots)
	admit(5, 60) // the same trace again
	if cap(l.slots) != before {
		t.Errorf("replaying the same pages grew the slot capacity from %d to %d", before, cap(l.slots))
	}
}
