// Source-site side-band: an optional pair of columns attributing every
// trace event to the source construct that produced it — the loop nest,
// statement and array reference for page references, the owning loop for
// directive events. Each event carries a 4-byte id into a small site
// table, one column parallel to the page column and one parallel to the
// directive column. Traces built without SetSite carry no site columns
// and encode exactly as before the side-band existed; CDT3 stores the
// ids on disk as runs.
package trace

// Site identifies one source construct: a statement-level array reference
// or a directive insertion point.
type Site struct {
	// Nest is the enclosing loop-nest path, outermost first, joined with
	// " / " (e.g. "DO 40 / DO 30"); "" for code outside any loop.
	Nest string
	// Line is the source line of the statement.
	Line int
	// Array is the referenced array name; "" for directive sites.
	Array string
	// Expr is the source text of the reference (e.g. "A(I,J)") or the
	// directive kind ("ALLOCATE", "LOCK", "UNLOCK") for directive sites.
	Expr string
}

// NoSite is the site id of events recorded while no site was current.
const NoSite int32 = -1

// AddSite appends a site to the table and returns its id. It enables the
// site column (see SetSite) but does not change the current site.
func (t *Trace) AddSite(s Site) int32 {
	t.enableSites()
	t.Sites = append(t.Sites, s)
	return int32(len(t.Sites) - 1)
}

// SetSite makes id the current site: every subsequently appended event is
// attributed to it until the next SetSite. Passing NoSite marks the
// following events unattributed. The first SetSite (or AddSite) on a trace
// enables the site column; events appended before that point are
// backfilled as NoSite.
func (t *Trace) SetSite(id int32) {
	t.enableSites()
	t.curSite = id
}

// enableSites turns the site columns on, backfilling events recorded
// before they existed: the open chunk's references and every directive
// here, the chunks already set aside when Finish joins them.
func (t *Trace) enableSites() {
	if t.sitesOn {
		return
	}
	t.sitesOn = true
	t.cols.sites = appendNoSites(make([]int32, 0, cap(t.cols.pages)), len(t.cols.pages))
	t.cols.dirSites = appendNoSites(nil, len(t.cols.dirs))
}

// appendNoSites appends n unattributed site ids to s.
func appendNoSites(s []int32, n int) []int32 {
	for range n {
		s = append(s, NoSite)
	}
	return s
}

// HasSites reports whether the trace carries a site column.
func (t *Trace) HasSites() bool { return t.sitesOn }

// WithoutSites returns a view of the trace with no site column, sharing
// t's event columns and directive side tables. The view is always a new
// trace, even for a column-less t, so a caller may replace its side
// tables without touching t; it is otherwise read-only. It encodes and
// simulates identically to the same program traced without sites — the
// "attribution off" twin used for byte-compat output and overhead
// measurement.
func (t *Trace) WithoutSites() *Trace {
	c := t.whole()
	return t.share(SideTables{Allocs: t.Allocs, LockSets: t.LockSets, UnlockSets: t.UnlockSets},
		columns{pages: c.pages, dirs: c.dirs}, false)
}
