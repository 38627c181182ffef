package trace

import (
	"math"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
)

func TestAddRefCountsDistinct(t *testing.T) {
	for _, c := range []struct {
		pages    []mem.Page
		distinct int
	}{
		{[]mem.Page{1, 2, 1, 3, 2, 1}, 3},
		// Pages past the bitset's range, which only a hostile trace file
		// holds, are counted without growing the bitset to reach them,
		// and doubling never takes it past that range.
		{[]mem.Page{0, seenDense, 40000 * 64, seenDense - 1, math.MaxInt32, seenDense, 0, math.MaxInt32, -1}, 6},
	} {
		tr := New("t")
		for _, p := range c.pages {
			tr.AddRef(p)
		}
		if tr.Refs != len(c.pages) {
			t.Errorf("%v: refs = %d, want %d", c.pages, tr.Refs, len(c.pages))
		}
		if tr.Distinct != c.distinct {
			t.Errorf("%v: distinct = %d, want %d", c.pages, tr.Distinct, c.distinct)
		}
		if len(tr.seen.bits) > seenDense/64 {
			t.Errorf("%v: bitset grew to %d words", c.pages, len(tr.seen.bits))
		}
	}
}

func TestAllocInterning(t *testing.T) {
	tr := New("t")
	d := &directive.Allocate{Arms: []directive.Arm{{PI: 2, X: 10}, {PI: 1, X: 3}}}
	tr.AddAlloc(d)
	tr.AddAlloc(d)
	if len(tr.Allocs) != 1 {
		t.Errorf("side table entries = %d, want 1 (interned)", len(tr.Allocs))
	}
	events := eventsOf(t, tr)
	if len(events) != 2 || tr.Meta().Events != 2 {
		t.Errorf("events = %d (Meta %d), want 2", len(events), tr.Meta().Events)
	}
	arms := tr.Alloc(events[0]).Arms
	if len(arms) != 2 || arms[0].X != 10 {
		t.Errorf("arms = %v", arms)
	}
}

func TestLockUnlockRoundTrip(t *testing.T) {
	tr := New("t")
	tr.AddLock(3, 7, []mem.Page{4, 5})
	tr.AddUnlock([]mem.Page{4, 5})
	events := eventsOf(t, tr)
	ls := tr.Lock(events[0])
	if ls.PJ != 3 || ls.Site != 7 || len(ls.Pages) != 2 {
		t.Errorf("lock set = %+v", ls)
	}
	ul := tr.Unlock(events[1])
	if len(ul) != 2 || ul[0] != 4 {
		t.Errorf("unlock pages = %v", ul)
	}
}

func TestPagesAndStrip(t *testing.T) {
	tr := New("t")
	tr.AddRef(1)
	tr.AddLock(2, 0, []mem.Page{1})
	tr.AddRef(2)
	pages := tr.Pages()
	if len(pages) != 2 || pages[0] != 1 || pages[1] != 2 {
		t.Errorf("pages = %v", pages)
	}
	s := tr.RefsOnly()
	if s.Meta().Events != 2 || s.Refs != 2 || s.Distinct != 2 {
		t.Errorf("stripped = %+v", s.Meta())
	}
}

func TestSummary(t *testing.T) {
	tr := New("prog")
	tr.AddRef(1)
	tr.AddLock(2, 0, nil)
	got := tr.Summary()
	want := "prog: R=1 references, V=1 distinct pages, 1 directive events"
	if got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}
