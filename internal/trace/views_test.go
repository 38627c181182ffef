package trace

import (
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
)

func buildMixedTrace() *Trace {
	tr := New("mixed")
	d := &directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 3}}}
	tr.AddRef(5)
	tr.AddRef(2)
	tr.AddAlloc(d)
	tr.AddRef(5)
	tr.AddLock(1, 0, []mem.Page{5})
	tr.AddRef(9)
	tr.AddUnlock([]mem.Page{5})
	tr.AddRef(2)
	return tr
}

// TestPagesMemoized: repeated Pages() calls return the trace's own page
// column, and an appended reference shows up in the next call.
func TestPagesMemoized(t *testing.T) {
	tr := buildMixedTrace()
	p1 := tr.Pages()
	p2 := tr.Pages()
	if len(p1) != 5 {
		t.Fatalf("Pages len=%d, want 5", len(p1))
	}
	if &p1[0] != &p2[0] {
		t.Fatal("Pages() returned distinct slices across calls")
	}
	if tr.MaxPage() != 9 {
		t.Fatalf("MaxPage=%d, want 9", tr.MaxPage())
	}

	tr.AddRef(11)
	p3 := tr.Pages()
	if len(p3) != 6 || p3[5] != 11 {
		t.Fatalf("Pages after AddRef = %v, want trailing 11", p3)
	}
	if tr.MaxPage() != 11 {
		t.Fatalf("MaxPage after AddRef=%d, want 11", tr.MaxPage())
	}
}

// TestRefsOnly: a trace with directives yields a directive-free view
// sharing the parent's page column; a directive-free trace returns
// itself.
func TestRefsOnly(t *testing.T) {
	tr := buildMixedTrace()
	ro := tr.RefsOnly()
	if ro == tr {
		t.Fatal("RefsOnly returned the original trace despite directives")
	}
	if ro.Refs != 5 || ro.Meta().Events != 5 {
		t.Fatalf("RefsOnly Refs=%d events=%d, want 5/5", ro.Refs, ro.Meta().Events)
	}
	for _, e := range eventsOf(t, ro) {
		if e.Kind != EvRef {
			t.Fatalf("RefsOnly kept a directive event: %v", e)
		}
	}
	if ro.Distinct != tr.Distinct {
		t.Fatalf("RefsOnly Distinct=%d, want %d", ro.Distinct, tr.Distinct)
	}
	pp, cp := tr.Pages(), ro.Pages()
	if &pp[0] != &cp[0] {
		t.Fatal("RefsOnly view does not share the parent reference string")
	}
	if len(ro.Allocs)+len(ro.LockSets)+len(ro.UnlockSets) != 0 {
		t.Fatal("RefsOnly view kept directive side tables")
	}
	if ro.RefsOnly() != ro {
		t.Fatal("RefsOnly of a refs-only view should return itself")
	}

	pure := New("pure")
	pure.AddRef(1)
	pure.AddRef(2)
	if pure.RefsOnly() != pure {
		t.Fatal("directive-free trace should return itself from RefsOnly")
	}
}

// TestViewsConcurrent reads and re-views one trace from multiple
// goroutines (run under -race): the views share its columns with no
// lock, so concurrent readers must never write.
func TestViewsConcurrent(t *testing.T) {
	tr := buildMixedTrace()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				_ = tr.Pages()
				_ = tr.MaxPage()
				_ = tr.RefsOnly().Meta()
				_ = tr.WithoutSites().Tables()
				_ = tr.WalkBlocks(CursorOpts{WithSites: true}, func(Block) bool { return true })
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}
