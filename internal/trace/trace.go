// Package trace defines the page-reference trace that the virtual memory
// simulator replays. A trace is the sequence of data-page references a
// program makes (instructions and constants are assumed permanently
// resident, per the paper's §5), interleaved with the memory-directive
// events (ALLOCATE / LOCK / UNLOCK) that the compiler inserted, resolved
// to concrete pages at execution time.
package trace

import (
	"cdmm/internal/directive"
	"cdmm/internal/mem"
)

// EventKind discriminates trace events.
type EventKind uint8

const (
	// EvRef is a reference to a data page.
	EvRef EventKind = iota
	// EvAlloc is an executed ALLOCATE directive; Arg indexes Allocs.
	EvAlloc
	// EvLock is an executed LOCK directive; Arg indexes LockSets.
	EvLock
	// EvUnlock is an executed UNLOCK directive; Arg indexes UnlockSets.
	EvUnlock
)

// Event is one trace entry. For EvRef, Arg is the page number; for the
// directive events it indexes the corresponding side table.
type Event struct {
	Kind EventKind
	Arg  int32
}

// AllocDirective is the side-table entry of an executed ALLOCATE: the
// else-chain of (PI, X) arms plus the key of the loop the directive
// precedes (used by directive-set selectors with per-loop overrides).
type AllocDirective struct {
	Label string
	Arms  []directive.Arm
}

// LockSet is the resolved page set of one LOCK execution.
type LockSet struct {
	PJ    int
	Site  int // lock site id; re-execution of a site replaces its locks
	Pages []mem.Page
}

// Trace is a complete program execution record. It is stored in the
// shape a cursor Block serves (see source.go), so replays slice it
// without copying: the reference string as one page column, the rare
// directive events in a column of their own at their reference
// positions, and — when the provenance side-band is on (site.go) — a
// site id per reference and per directive.
//
// While a trace is built, AddRef writes the page and site columns into
// an open chunk of at most chunkRefs references and sets each full chunk
// aside; Finish concatenates them once into exact-length columns. A
// trace with chunks set aside cannot be read: every reader of its
// columns panics until Finish. Every producer (the interpreter, the
// decoder, the chaos injectors, Materialize) finishes the traces it
// returns.
type Trace struct {
	Name string

	// SideTables holds the tables directive events index by Arg and the
	// site table of the provenance side-band. Tables returns it.
	SideTables

	// Refs is R, the number of page references.
	Refs int
	// Distinct is V, the number of distinct pages referenced.
	Distinct int

	cols    columns   // whole columns, or the open chunk while spilled holds others
	spilled []columns // full chunks set aside by AddRef, in order; nil once finished
	maxPage mem.Page  // largest referenced page; -1 when there are none

	sitesOn bool  // the site columns exist
	curSite int32 // site stamped on the next appended event

	allocIndex map[*directive.Allocate]int32
	seen       pageSet
}

// seenDense is the page range pageSet tracks in a bitset. Pages outside
// it (only a hostile trace file has them) fall back to a map, so no page
// number can make the bitset huge.
const seenDense = 1 << 22

// pageSet records which pages a trace has referenced: a bitset grown on
// demand over [0, seenDense), a map beyond it.
type pageSet struct {
	bits []uint64
	far  map[mem.Page]bool
}

// reset empties the set, keeping its dense words for reuse.
func (s *pageSet) reset() {
	clear(s.bits)
	s.far = nil
}

// has reports whether p is in the bitset. It inlines, so a hot loop
// calls add only for pages it has not seen.
func (s *pageSet) has(p mem.Page) bool {
	w := uint(uint32(p) >> 6)
	return w < uint(len(s.bits)) && s.bits[w]&(1<<(p&63)) != 0
}

// add inserts p and reports whether it was new.
func (s *pageSet) add(p mem.Page) bool {
	if uint32(p) >= seenDense {
		if s.far[p] {
			return false
		}
		if s.far == nil {
			s.far = map[mem.Page]bool{}
		}
		s.far[p] = true
		return true
	}
	w, bit := int(p>>6), uint64(1)<<(p&63)
	if w >= len(s.bits) {
		grown := make([]uint64, min(max(w+1, 2*len(s.bits)), seenDense/64))
		copy(grown, s.bits)
		s.bits = grown
	}
	if s.bits[w]&bit != 0 {
		return false
	}
	s.bits[w] |= bit
	return true
}

// chunkRefs is the length of the chunks a trace's page and site columns
// are built in. Only a trace's first chunk grows, by doubling; every
// later one is allocated at full length, so a reference past the first
// chunk is copied once, by Finish.
const chunkRefs = 1 << 14

// columns is the layout Blocks are cut from: a trace's whole stream, or
// one decoded CDT3 chunk. The site columns are nil on streams without a
// site column.
type columns struct {
	pages    []mem.Page // the reference string, in order
	sites    []int32    // site id of each reference
	dirs     []dirPos   // directive events at their reference positions
	dirSites []int32    // site id of each directive
}

// dirPos is one side-banded directive event: ev executes after the
// first refsBefore entries of the page column.
type dirPos struct {
	refsBefore int
	ev         Event
}

// New returns an empty trace.
func New(name string) *Trace {
	return &Trace{
		Name:       name,
		maxPage:    -1,
		curSite:    NoSite,
		allocIndex: map[*directive.Allocate]int32{},
	}
}

// AddRef appends a page reference.
func (t *Trace) AddRef(p mem.Page) {
	if len(t.cols.pages) == cap(t.cols.pages) {
		t.grow()
	}
	t.cols.pages = append(t.cols.pages, p)
	if t.sitesOn {
		t.cols.sites = append(t.cols.sites, t.curSite)
	}
	t.Refs++
	if p > t.maxPage {
		t.maxPage = p
	}
	if !t.seen.has(p) && t.seen.add(p) {
		t.Distinct++
	}
}

// grow makes room for one more reference in the open chunk: a chunk
// shorter than chunkRefs doubles, and a full one is set aside for a
// fresh chunk of full length. The site column keeps the page column's
// capacity, so its appends never reallocate.
func (t *Trace) grow() {
	n := len(t.cols.pages)
	if n >= chunkRefs {
		t.spilled = append(t.spilled, columns{pages: t.cols.pages, sites: t.cols.sites})
		t.cols.pages, t.cols.sites = make([]mem.Page, 0, chunkRefs), nil
		if t.sitesOn {
			t.cols.sites = make([]int32, 0, chunkRefs)
		}
		return
	}
	c := min(max(2*n, 256), chunkRefs)
	t.cols.pages = append(make([]mem.Page, 0, c), t.cols.pages...)
	if t.sitesOn {
		t.cols.sites = append(make([]int32, 0, c), t.cols.sites...)
	}
}

// Finish concatenates the chunks AddRef set aside, with the open one,
// into exact-length columns, and makes the trace readable. A trace that
// never filled its first chunk is already whole and finishes without a
// copy. Appending to a finished trace is allowed; finish it again
// before reading it.
func (t *Trace) Finish() {
	if len(t.spilled) == 0 {
		return
	}
	chunks := append(t.spilled, t.cols)
	n := 0
	for _, c := range chunks {
		n += len(c.pages)
	}
	pages := make([]mem.Page, 0, n)
	for _, c := range chunks {
		pages = append(pages, c.pages...)
	}
	var sites []int32
	if t.sitesOn {
		// A chunk set aside before the site column was enabled has no
		// sites: its references are unattributed.
		sites = make([]int32, 0, n)
		for _, c := range chunks {
			if c.sites == nil {
				sites = appendNoSites(sites, len(c.pages))
			} else {
				sites = append(sites, c.sites...)
			}
		}
	}
	t.cols.pages, t.cols.sites = pages, sites
	t.spilled = nil
}

// whole returns the trace's columns, panicking while chunks are set
// aside: they hold only the open chunk then.
func (t *Trace) whole() columns {
	if len(t.spilled) != 0 {
		panic("trace: " + t.Name + " read before Finish")
	}
	return t.cols
}

// Append appends e verbatim at the current site: a reference to page
// e.Arg (EvRef), or a directive event whose Arg indexes an entry already
// in the matching side table. It is the raw form of the Add* methods —
// no interning, no side-table entry — for code that rebuilds a stream
// event by event, such as the decoders and the chaos injectors.
func (t *Trace) Append(e Event) {
	if e.Kind == EvRef {
		t.AddRef(mem.Page(e.Arg))
		return
	}
	t.cols.dirs = append(t.cols.dirs, dirPos{refsBefore: t.Refs, ev: e})
	if t.sitesOn {
		t.cols.dirSites = append(t.cols.dirSites, t.curSite)
	}
}

// AddAlloc appends an ALLOCATE execution. The arm list of a given
// directive is interned: repeated executions share one side-table entry.
func (t *Trace) AddAlloc(d *directive.Allocate) {
	idx, ok := t.allocIndex[d]
	if !ok {
		idx = int32(len(t.Allocs))
		label := ""
		if d.For != nil {
			label = d.For.Key()
		}
		t.Allocs = append(t.Allocs, AllocDirective{Label: label, Arms: d.Arms})
		t.allocIndex[d] = idx
	}
	t.Append(Event{Kind: EvAlloc, Arg: idx})
}

// AddLock appends a LOCK execution with its resolved pages.
func (t *Trace) AddLock(pj, site int, pages []mem.Page) {
	t.LockSets = append(t.LockSets, LockSet{PJ: pj, Site: site, Pages: pages})
	t.Append(Event{Kind: EvLock, Arg: int32(len(t.LockSets) - 1)})
}

// AddUnlock appends an UNLOCK execution covering the given pages.
func (t *Trace) AddUnlock(pages []mem.Page) {
	t.UnlockSets = append(t.UnlockSets, pages)
	t.Append(Event{Kind: EvUnlock, Arg: int32(len(t.UnlockSets) - 1)})
}

// Pages returns the reference string (no directive events). The slice is
// the trace's own page column: callers must treat it as read-only.
func (t *Trace) Pages() []mem.Page { return t.whole().pages }

// MaxPage returns the largest page number the trace references, or -1 for
// an empty reference string.
func (t *Trace) MaxPage() mem.Page { return t.maxPage }

// RefsOnly returns the directive-free view of the trace: the same
// reference string and site column with no ALLOCATE/LOCK/UNLOCK events.
// A trace with no directive events returns itself. The view shares t's
// columns and is read-only.
func (t *Trace) RefsOnly() *Trace {
	c := t.whole()
	if len(c.dirs) == 0 {
		return t
	}
	return t.share(SideTables{Sites: t.Sites}, columns{pages: c.pages, sites: c.sites}, t.sitesOn)
}

// share returns a read-only trace over the given tables and columns (a
// subset of t's) with t's name and reference counters.
func (t *Trace) share(tables SideTables, cols columns, sitesOn bool) *Trace {
	return &Trace{
		Name:       t.Name,
		SideTables: tables,
		Refs:       t.Refs,
		Distinct:   t.Distinct,
		cols:       cols,
		maxPage:    t.maxPage,
		sitesOn:    sitesOn,
		curSite:    NoSite,
	}
}

// Summary renders a one-line description.
func (t *Trace) Summary() string { return t.Meta().Summary() }
