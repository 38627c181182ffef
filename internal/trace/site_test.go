package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cdmm/internal/mem"
)

// siteTrace builds a small trace with two sites and an unattributed
// prefix: 2 events before the column exists, then 3 refs at site A, a
// lock at site B, and 2 refs at site A again.
func siteTrace(t *testing.T) *Trace {
	t.Helper()
	tr := New("sited")
	tr.AddRef(1)
	tr.AddRef(2)
	a := tr.AddSite(Site{Nest: "DO 40 / DO 30", Line: 12, Array: "A", Expr: "A(I,J)"})
	b := tr.AddSite(Site{Nest: "DO 40", Line: 10, Expr: "LOCK"})
	tr.SetSite(a)
	tr.AddRef(3)
	tr.AddRef(3)
	tr.AddRef(4)
	tr.SetSite(b)
	tr.AddLock(1, 7, []mem.Page{3})
	tr.SetSite(a)
	tr.AddRef(5)
	tr.AddRef(1)
	return tr
}

// expectSites walks tr's blocks with sites and compares against want,
// one id per event.
func expectSites(t *testing.T, tr *Trace, want []int32) {
	t.Helper()
	if n := tr.Meta().Events; len(want) != n {
		t.Fatalf("want list has %d entries for %d events", len(want), n)
	}
	_, got := flattenSource(t, tr, CursorOpts{WithSites: true})
	sameSites(t, got, want, "site column")
}

func TestSiteColumnRLEAndBackfill(t *testing.T) {
	tr := siteTrace(t)
	if !tr.HasSites() {
		t.Fatal("HasSites = false after SetSite")
	}
	expectSites(t, tr, []int32{NoSite, NoSite, 0, 0, 0, 1, 0, 0})
	// Consecutive same-site events collapse into runs on disk.
	var st CDT3Stats
	if _, err := WriteCDT3Stats(io.Discard, tr, 0, &st); err != nil {
		t.Fatal(err)
	}
	if want := int64(1 + 4*2); st.SiteBytes != want {
		t.Fatalf("site runs take %d bytes, want %d (4 runs)", st.SiteBytes, want)
	}
}

func TestSiteColumnAbsentByDefault(t *testing.T) {
	tr := New("plain")
	tr.AddRef(1)
	tr.AddLock(1, 0, []mem.Page{1})
	if tr.HasSites() {
		t.Fatal("HasSites = true on a trace never given a site")
	}
	expectSites(t, tr, []int32{NoSite, NoSite})
	if tr.cols.sites != nil || tr.cols.dirSites != nil {
		t.Fatal("site columns allocated on a column-less trace")
	}
}

func TestSiteRoundTrip(t *testing.T) {
	tr := siteTrace(t)
	back, err := Read(bytes.NewReader(encodeCDT3(t, tr, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasSites() {
		t.Fatal("decoded trace lost its site column")
	}
	if len(back.Sites) != len(tr.Sites) {
		t.Fatalf("decoded %d sites, want %d", len(back.Sites), len(tr.Sites))
	}
	for i := range tr.Sites {
		if back.Sites[i] != tr.Sites[i] {
			t.Fatalf("site %d = %+v, want %+v", i, back.Sites[i], tr.Sites[i])
		}
	}
	expectSites(t, back, []int32{NoSite, NoSite, 0, 0, 0, 1, 0, 0})
}

// TestSiteFreeEncodingUnchanged pins the byte-compat contract: the
// WithoutSites view of a sited trace encodes exactly like the same
// program traced without sites.
func TestSiteFreeEncodingUnchanged(t *testing.T) {
	plain := New("p")
	plain.AddRef(1)
	plain.AddLock(1, 0, []mem.Page{1})
	plain.AddRef(2)
	plain.AddRef(1)
	want := encodeCDT3(t, plain, 0)

	sited := New("p")
	sited.SetSite(sited.AddSite(Site{Nest: "DO 1", Line: 1, Array: "A", Expr: "A(I)"}))
	sited.AddRef(1)
	sited.AddLock(1, 0, []mem.Page{1})
	sited.AddRef(2)
	sited.AddRef(1)
	if bytes.Equal(encodeCDT3(t, sited, 0), want) {
		t.Fatal("the sited trace encodes like the plain one; the test proves nothing")
	}
	if !bytes.Equal(encodeCDT3(t, sited.WithoutSites(), 0), want) {
		t.Fatal("WithoutSites encoding differs from a never-sited trace")
	}
}

func TestSiteDecodeRejectsBadRuns(t *testing.T) {
	// One chunk: its site runs end the stream, the last run (a one-byte
	// length and site) just before the terminator.
	raw := encodeCDT3(t, sitedSampleTrace(), 0)
	var de *DecodeError
	// Cut the final run short.
	if _, err := Read(bytes.NewReader(raw[:len(raw)-2])); !errors.As(err, &de) || de.Section != "site runs" {
		t.Fatalf("decoding a truncated site run returned %v, want a site runs error", err)
	}
	// A run one event too long overruns the events it must cover.
	long := append([]byte(nil), raw...)
	long[len(long)-3]++
	if _, err := Read(bytes.NewReader(long)); !errors.As(err, &de) || de.Section != "site runs" {
		t.Fatalf("decoding site runs longer than the event stream returned %v, want a site runs error", err)
	}
}

func TestRefsOnlyProjectsSites(t *testing.T) {
	tr := siteTrace(t)
	ro := tr.RefsOnly()
	if !ro.HasSites() {
		t.Fatal("RefsOnly dropped the site column")
	}
	if ro.Refs != 7 || ro.Meta().Events != 7 {
		t.Fatalf("RefsOnly has %d refs / %d events, want 7/7", ro.Refs, ro.Meta().Events)
	}
	expectSites(t, ro, []int32{NoSite, NoSite, 0, 0, 0, 0, 0})
}

func TestWithoutSitesSharesEventsOnly(t *testing.T) {
	tr := siteTrace(t)
	bare := tr.WithoutSites()
	if bare.HasSites() {
		t.Fatal("WithoutSites still reports a site column")
	}
	if bare.Meta().Events != tr.Meta().Events || bare.Refs != tr.Refs || bare.Distinct != tr.Distinct {
		t.Fatal("WithoutSites changed the event stream")
	}
	sameEvents(t, eventsOf(t, bare), eventsOf(t, tr), "events")
	expectSites(t, bare, []int32{NoSite, NoSite, NoSite, NoSite, NoSite, NoSite, NoSite, NoSite})
	if len(bare.Sites) != 0 {
		t.Fatal("WithoutSites kept the site table")
	}
	// The view is a new trace even without a column, so replacing its
	// side tables leaves the original alone.
	plain := New("p")
	plain.AddLock(1, 0, nil)
	view := plain.WithoutSites()
	if view == plain {
		t.Fatal("WithoutSites on a column-less trace returned the trace itself")
	}
	view.LockSets = nil
	if len(plain.LockSets) != 1 {
		t.Fatal("replacing the view's side tables changed the original")
	}
}
