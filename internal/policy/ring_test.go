package policy

import (
	"fmt"
	"slices"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// Rotation tests for the circular LRU list. The ring runs in lockstep
// with oracleList (oracle_test.go), the map-and-heap-node list it
// replaced, and after every step its MRU→LRU order, lock bits, count
// and both ring closures must match the oracle's list. The streams are
// the ones the ring is built for: cyclic sweeps of a window that fits
// the allocation, where every hit lands on the tail and becomes a
// rotation of the list ends.

// checkRing asserts that l is a closed ring holding exactly o's pages
// in o's MRU→LRU order with o's lock bits, and that every other slot is
// marked non-resident.
func checkRing(t *testing.T, l *lruList, o *oracleList, tag string) {
	t.Helper()
	if l.n != o.len() {
		t.Fatalf("%s: ring holds %d pages, oracle %d", tag, l.n, o.len())
	}
	resident := 0
	for s := range l.slots {
		if l.slots[s].prev != notIn {
			resident++
		}
	}
	if resident != l.n {
		t.Fatalf("%s: %d slots marked resident, count %d", tag, resident, l.n)
	}
	if l.n == 0 {
		if l.head != -1 || l.tail != -1 {
			t.Fatalf("%s: empty ring has ends %d, %d", tag, l.head, l.tail)
		}
		return
	}
	if l.slots[l.head].prev != l.tail || l.slots[l.tail].next != l.head {
		t.Fatalf("%s: ring not closed: head %d (prev %d), tail %d (next %d)",
			tag, l.head, l.slots[l.head].prev, l.tail, l.slots[l.tail].next)
	}
	s, n := l.head, o.head
	for i := 0; i < l.n; i++ {
		if n == nil {
			t.Fatalf("%s: oracle list ends at position %d of %d", tag, i, l.n)
		}
		if pg := l.idx.pageOf(s); pg != n.page || l.slots[s].locked != n.locked {
			t.Fatalf("%s: position %d holds page %d (locked %v), oracle page %d (locked %v)",
				tag, i, pg, l.slots[s].locked, n.page, n.locked)
		}
		nx := l.slots[s].next
		if l.slots[nx].prev != s {
			t.Fatalf("%s: slot %d's next %d links back to %d", tag, s, nx, l.slots[nx].prev)
		}
		s, n = nx, n.next
	}
	if s != l.head || n != nil {
		t.Fatalf("%s: walking %d links from the head does not close the ring", tag, l.n)
	}
}

// sweep returns rounds cyclic sweeps of pages 0..w-1.
func sweep(w, rounds int) []mem.Page {
	pages := make([]mem.Page, 0, w*rounds)
	for r := 0; r < rounds; r++ {
		for pg := 0; pg < w; pg++ {
			pages = append(pages, mem.Page(pg))
		}
	}
	return pages
}

// allocX is an ALLOCATE directive granting x pages at every level.
func allocX(x int) trace.AllocDirective {
	return trace.AllocDirective{Label: "L", Arms: []directive.Arm{{PI: 1, X: x}}}
}

// listOf returns the list under an LRU or CD policy and its oracle's.
func listOf(p, o Policy) (*lruList, *oracleList) {
	switch p := p.(type) {
	case *LRU:
		return p.list, o.(*oracleLRU).list
	case *CD:
		return p.list, o.(*oracleCD).list
	}
	panic(fmt.Sprintf("no LRU list under %T", p))
}

// stepBoth references pg in p through a one-page StepBlock (so a hit
// goes through hitRun) or through Ref (touchSlot), and in o through
// Ref; the fault decisions and the lists must agree afterwards. It
// reports whether pg was p's tail before the reference.
func stepBoth(t *testing.T, p, o Policy, pg mem.Page, viaRun bool, tag string) (tailHit bool) {
	t.Helper()
	l, ol := listOf(p, o)
	tailHit = l.n > 1 && l.lookupResident(pg) == l.tail
	var fault bool
	if viaRun {
		var out BlockResult
		p.(BlockStepper).StepBlock([]mem.Page{pg}, &out)
		fault = out.Faults == 1
	} else {
		fault = p.Ref(pg)
	}
	if of := o.Ref(pg); fault != of {
		t.Fatalf("%s: ref %d: fault %v, oracle %v", tag, pg, fault, of)
	}
	checkRing(t, l, ol, fmt.Sprintf("%s: after ref %d", tag, pg))
	return tailHit
}

// zigzag returns rounds sweeps of pages 0..w-1 forward and back, whose
// re-references after the first land ever deeper inside the list.
func zigzag(w, rounds int) []mem.Page {
	var pages []mem.Page
	for r := 0; r < rounds; r++ {
		for pg := 0; pg < w; pg++ {
			pages = append(pages, mem.Page(pg))
		}
		for pg := w - 2; pg > 0; pg-- {
			pages = append(pages, mem.Page(pg))
		}
	}
	return pages
}

// TestRingCyclicSweeps sweeps windows of 1–23 pages cyclically under
// an LRU partition and a CD allocation equal to the window, so after
// the first sweep every reference hits the tail, then zigzags over the
// same window, so hits land between the ends. The ring must follow the
// oracle reference by reference through hitRun and through touchSlot,
// and block by block through whole-block StepBlock.
func TestRingCyclicSweeps(t *testing.T) {
	for w := 1; w <= 23; w++ {
		cyclic := sweep(w, 6)
		pages := append(slices.Clip(cyclic), zigzag(w, 2)...)
		for _, kind := range []string{"LRU", "CD"} {
			mk := func() (Policy, Policy) {
				if kind == "LRU" {
					return NewLRU(w), newOracleLRU(w)
				}
				p, o := NewCD(nil, 1), newOracleCD(nil, 1)
				p.Alloc(allocX(w))
				o.Alloc(allocX(w))
				return p, o
			}
			for _, viaRun := range []bool{true, false} {
				tag := fmt.Sprintf("%s/w=%d/hitRun=%v", kind, w, viaRun)
				p, o := mk()
				tailHits := 0
				for _, pg := range cyclic {
					if stepBoth(t, p, o, pg, viaRun, tag) {
						tailHits++
					}
				}
				if want := len(cyclic) - w; w > 1 && tailHits != want {
					t.Fatalf("%s: %d tail hits, want every one of the %d re-references", tag, tailHits, want)
				}
				for _, pg := range pages[len(cyclic):] {
					stepBoth(t, p, o, pg, viaRun, tag+"/zigzag")
				}
			}
			// Whole blocks, cut off the cycle so runs start and end
			// anywhere in the ring.
			tag := fmt.Sprintf("%s/w=%d/blocks", kind, w)
			p, o := mk()
			l, ol := listOf(p, o)
			var out, oout BlockResult
			for i := 0; i < len(pages); i += 7 {
				blk := pages[i:min(i+7, len(pages))]
				p.(BlockStepper).StepBlock(blk, &out)
				for _, pg := range blk {
					accumGeneric(o, pg, &oout)
				}
				if out != oout {
					t.Fatalf("%s: block at %d: %+v, oracle %+v", tag, i, out, oout)
				}
				checkRing(t, l, ol, fmt.Sprintf("%s: block at %d", tag, i))
			}
			if out.Faults != w {
				t.Fatalf("%s: %d faults, want only the %d cold misses", tag, out.Faults, w)
			}
		}
	}
}

// TestRingOnePage drives one-page lists, where the head is the tail and
// the one slot links to itself: a one-frame LRU partition, whose every
// new page evicts the last, and a one-page CD allocation that a locked
// page rides above.
func TestRingOnePage(t *testing.T) {
	refs := []mem.Page{0, 0, 1, 1, 1, 0, 2, 2, 0, 0}
	for _, viaRun := range []bool{true, false} {
		tag := fmt.Sprintf("LRU/m=1/hitRun=%v", viaRun)
		p, o := NewLRU(1), newOracleLRU(1)
		for _, pg := range refs {
			stepBoth(t, p, o, pg, viaRun, tag)
			if s := p.list.head; p.list.slots[s].prev != s || p.list.slots[s].next != s {
				t.Fatalf("%s: one-page ring's slot %d links to %d and %d", tag, s, p.list.slots[s].prev, p.list.slots[s].next)
			}
		}

		tag = fmt.Sprintf("CD/x=1/hitRun=%v", viaRun)
		cd, ocd := NewCD(nil, 1), newOracleCD(nil, 1)
		cd.Alloc(allocX(1))
		ocd.Alloc(allocX(1))
		stepBoth(t, cd, ocd, 5, viaRun, tag)
		lock := trace.LockSet{PJ: 1, Site: 0, Pages: []mem.Page{5}}
		cd.Lock(lock)
		ocd.Lock(lock)
		checkRing(t, cd.list, ocd.list, tag+": after LOCK")
		for _, pg := range refs {
			stepBoth(t, cd, ocd, pg, viaRun, tag)
		}
		if cd.Resident() != 2 || cd.LockedPages() != 1 {
			t.Fatalf("%s: %d resident, %d locked; want the locked page above a one-page allocation", tag, cd.Resident(), cd.LockedPages())
		}
		cd.Unlock(lock.Pages)
		ocd.Unlock(lock.Pages)
		cd.Alloc(allocX(1))
		ocd.Alloc(allocX(1))
		checkRing(t, cd.list, ocd.list, tag+": after UNLOCK and shrink")
	}
}

// forceRelease mirrors CD.ForceRelease on the oracle and returns the
// released pages in order.
func (p *oracleCD) forceRelease(k int) []mem.Page {
	var out []mem.Page
	for len(out) < k {
		n := p.list.lowestPriorityLocked()
		if n == nil {
			break
		}
		p.releaseLock(n)
		p.list.remove(n.page)
		p.LockReleases++
		out = append(out, n.page)
	}
	return out
}

// reclaim mirrors CD.Reclaim on the oracle: LRU unlocked pages first,
// then locked pages in increasing lock priority. It returns the pages
// taken in order.
func (p *oracleCD) reclaim(k int) []mem.Page {
	var out []mem.Page
	for len(out) < k {
		pg, ok := p.list.evictLRU()
		if !ok {
			break
		}
		out = append(out, pg)
	}
	return append(out, p.forceRelease(k-len(out))...)
}

// lockedTail builds a CD policy and its oracle that swept a 6-page
// window at a 6-page allocation, locked three of its pages (page 0 at
// the lowest priority, the largest PJ) and swept on, stopping with
// locked pages 0 and 1 at the LRU end. The CD policy records every
// page it gives up, to its eviction hook or as a forced lock release,
// in order.
func lockedTail(t *testing.T, viaRun bool, tag string) (*CD, *oracleCD, *[]mem.Page) {
	t.Helper()
	p, o := NewCD(SelectLevel(2), 2), newOracleCD(SelectLevel(2), 2)
	p.Check = &CheckConfig{MaxPage: 64}
	taken := &[]mem.Page{}
	p.SetEvictHook(func(pg mem.Page) { *taken = append(*taken, pg) })
	p.Hooks = &CDHooks{LockRelease: func(pg mem.Page) { *taken = append(*taken, pg) }}
	p.Alloc(allocX(6))
	o.Alloc(allocX(6))
	for _, pg := range sweep(6, 3) {
		stepBoth(t, p, o, pg, viaRun, tag)
	}
	for _, ls := range []trace.LockSet{
		{PJ: 3, Site: 0, Pages: []mem.Page{0}},
		{PJ: 1, Site: 1, Pages: []mem.Page{1, 4}},
	} {
		p.Lock(ls)
		o.Lock(ls)
	}
	for _, pg := range sweep(6, 4) {
		stepBoth(t, p, o, pg, viaRun, tag)
	}
	if pg := p.list.idx.pageOf(p.list.tail); pg != 0 || !p.list.slots[p.list.tail].locked {
		t.Fatalf("%s: tail is page %d (locked %v), want locked page 0", tag, pg, p.list.slots[p.list.tail].locked)
	}
	if err := p.AuditLocks(); err != nil {
		t.Fatalf("%s: lock audit after rotations: %v", tag, err)
	}
	return p, o, taken
}

// TestRingLockedTail rotates a ring whose pages include locked ones
// until a locked page is the tail, then runs every walk that must step
// past it: a shrinking ALLOCATE and Reclaim evict the LRU unlocked
// pages behind it, ForceRelease and Reclaim's second pass take the
// largest-PJ lock, and degrade seeds the WS fallback LRU→MRU. Each
// ends with Reset and a fresh cyclic sweep against a fresh oracle.
func TestRingLockedTail(t *testing.T) {
	for _, viaRun := range []bool{true, false} {
		for _, op := range []string{"shrink", "forceRelease", "reclaim", "degrade"} {
			tag := fmt.Sprintf("%s/hitRun=%v", op, viaRun)
			p, o, taken := lockedTail(t, viaRun, tag)
			var want []mem.Page
			switch op {
			case "shrink":
				p.Alloc(allocX(2))
				o.Alloc(allocX(2))
				want = []mem.Page{2} // past locked pages 0 and 1
			case "forceRelease":
				if got := p.ForceRelease(2); got != 2 {
					t.Fatalf("%s: released %d pages, want 2", tag, got)
				}
				want = o.forceRelease(2)
			case "reclaim":
				if got := p.Reclaim(5); got != 5 {
					t.Fatalf("%s: reclaimed %d pages, want 5", tag, got)
				}
				want = o.reclaim(5)
			case "degrade":
				for n := o.list.tail; n != nil; n = n.prev {
					want = append(want, n.page)
				}
				p.Alloc(allocX(99)) // beyond MaxPage: a contract violation
				if !p.Degraded() || p.LockedPages() != 0 {
					t.Fatalf("%s: degraded %v with %d pages locked", tag, p.Degraded(), p.LockedPages())
				}
				ws := p.fallback
				var seed []mem.Page
				for i := 0; i < ws.winLen; i++ {
					seed = append(seed, ws.idx.pageOf(ws.win[(ws.winHead+i)&(len(ws.win)-1)].slot))
				}
				if !slices.Equal(seed, want) {
					t.Fatalf("%s: fallback seeded with %v, want the ring LRU→MRU %v", tag, seed, want)
				}
				want = nil // degrading gives up no page
			}
			if !slices.Equal(*taken, want) {
				t.Fatalf("%s: pages given up %v, oracle %v", tag, *taken, want)
			}
			if !p.Degraded() {
				checkRing(t, p.list, o.list, tag)
				if err := p.AuditLocks(); err != nil {
					t.Fatalf("%s: lock audit: %v", tag, err)
				}
				if p.LockReleases != o.LockReleases || p.LockedPages() != o.locked {
					t.Fatalf("%s: %d releases, %d locked; oracle %d, %d", tag, p.LockReleases, p.LockedPages(), o.LockReleases, o.locked)
				}
			}

			p.Reset()
			o = newOracleCD(SelectLevel(2), 2)
			checkRing(t, p.list, o.list, tag+": after Reset")
			p.Alloc(allocX(5))
			o.Alloc(allocX(5))
			for _, pg := range sweep(5, 3) {
				stepBoth(t, p, o, mem.Page(10)+pg, viaRun, tag+": after Reset")
			}
		}
	}
}
