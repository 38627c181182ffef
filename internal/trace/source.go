// Streaming trace plane: Source/Cursor abstract *where a reference
// stream comes from* (an in-memory Trace, a fully decoded columnar
// trace, a chunked CDT3 file) from *how it is replayed*. A Cursor hands
// the simulator Blocks — runs of consecutive page references terminated
// by at most one directive event — so the hot loop steps whole batches
// through a policy.BlockStepper instead of dispatching per event, and a
// multi-GB on-disk trace replays in O(chunk) memory.
package trace

import (
	"fmt"

	"cdmm/internal/mem"
)

// Meta describes a reference stream without materializing it. Sources
// know their totals up front (the in-memory trace counts as it is built;
// the CDT3 header carries them), so policies can pre-size dense state and
// progress callbacks can report completion fractions.
type Meta struct {
	// Name identifies the traced program.
	Name string
	// Events is the total event count (references + directives).
	Events int
	// Refs is R, the number of page references.
	Refs int
	// Distinct is V, the number of distinct pages referenced.
	Distinct int
	// MaxPage is the largest referenced page, -1 when there are none.
	MaxPage mem.Page
	// HasSites reports whether the stream carries a source-site column.
	HasSites bool
}

// Summary renders the stream's totals as one line.
func (m Meta) Summary() string {
	return fmt.Sprintf("%s: R=%d references, V=%d distinct pages, %d directive events", m.Name, m.Refs, m.Distinct, m.Events-m.Refs)
}

// SideTables holds the directive side tables a stream's directive events
// index via Event.Arg, plus the site table of the provenance column.
// All slices are read-only views owned by the source.
type SideTables struct {
	Allocs     []AllocDirective
	LockSets   []LockSet
	UnlockSets [][]mem.Page
	Sites      []Site
}

// Alloc resolves an EvAlloc event.
func (st *SideTables) Alloc(e Event) AllocDirective { return st.Allocs[e.Arg] }

// Lock resolves an EvLock event.
func (st *SideTables) Lock(e Event) LockSet { return st.LockSets[e.Arg] }

// Unlock resolves an EvUnlock event.
func (st *SideTables) Unlock(e Event) []mem.Page { return st.UnlockSets[e.Arg] }

// count returns the number of side-table entries a directive event of
// the given kind may index; 0 for any other kind.
func (st *SideTables) count(kind EventKind) int {
	switch kind {
	case EvAlloc:
		return len(st.Allocs)
	case EvLock:
		return len(st.LockSets)
	case EvUnlock:
		return len(st.UnlockSets)
	}
	return 0
}

// Block is one batch of a reference stream: zero or more consecutive
// page references followed by at most one directive event. Directives
// are rare in real traces, so blocks are long page runs and the
// per-block bookkeeping amortizes to nothing. The slices are read-only
// views owned by the cursor or its source, valid only until the next
// Next call.
type Block struct {
	// Pages are the consecutive page references of the batch.
	Pages []mem.Page
	// Sites are the per-reference site ids, parallel to Pages. Nil
	// unless the cursor was opened with CursorOpts.WithSites on a
	// site-carrying stream.
	Sites []int32
	// HasDir reports that Dir holds a directive event closing the block.
	HasDir bool
	// Dir is the directive event (EvAlloc/EvLock/EvUnlock) after the
	// references; resolve it against the source's SideTables.
	Dir Event
	// DirSite is the site id of Dir when sites were requested.
	DirSite int32
}

// Events returns the number of trace events the block covers.
func (b *Block) Events() int {
	n := len(b.Pages)
	if b.HasDir {
		n++
	}
	return n
}

// CursorOpts configure a cursor.
type CursorOpts struct {
	// WithSites asks for per-reference site ids in Block.Sites (and
	// Block.DirSite). Ignored by streams without a site column.
	WithSites bool
	// MaxBlock caps the references per block; 0 means the source's
	// natural batching (a whole inter-directive run for in-memory
	// traces, a decode chunk for streamed ones). Progress-reporting
	// replays cap blocks so callbacks fire at a steady cadence.
	MaxBlock int
}

// Cursor walks a reference stream block by block. Cursors are
// single-use and not safe for concurrent use; obtain a fresh cursor per
// replay via Source.Blocks.
type Cursor interface {
	// Next fills b with the next block and reports whether one was
	// produced. Block slices are invalidated by the following Next.
	Next(b *Block) bool
	// Err returns the error that terminated iteration early, if any
	// (chunked sources surface decode errors here; in-memory cursors
	// never fail).
	Err() error
	// Close releases resources held by the cursor (open files for
	// streamed sources). Close is idempotent; Next must not be called
	// after Close.
	Close() error
}

// Source produces cursors over a reference stream. The in-memory
// *Trace, the fully decoded columnar trace and the chunked CDT3 file
// reader all implement it, so every simulator entry point replays any
// of them through one code path.
type Source interface {
	// Meta returns the stream's totals.
	Meta() Meta
	// Tables returns the directive side tables. The result is shared
	// and read-only.
	Tables() *SideTables
	// Blocks opens a cursor at the start of the stream.
	Blocks(opts CursorOpts) Cursor
}

// --- *Trace as a Source ---------------------------------------------

// Meta implements Source. It is O(1): the counters are maintained as
// events are appended.
func (t *Trace) Meta() Meta {
	return Meta{
		Name:     t.Name,
		Events:   t.Refs + len(t.cols.dirs),
		Refs:     t.Refs,
		Distinct: t.Distinct,
		MaxPage:  t.maxPage,
		HasSites: t.sitesOn,
	}
}

// Tables implements Source: the trace's own side tables.
func (t *Trace) Tables() *SideTables { return &t.SideTables }

// Blocks implements Source. The cursor serves zero-copy sub-slices of
// the trace's columns, so block-stepped replays touch no per-event
// structure at all.
func (t *Trace) Blocks(opts CursorOpts) Cursor {
	c := t.blockCursor(opts)
	return &c
}

// WalkBlocks streams the trace's blocks through fn (stopping early when
// fn returns false) with the cursor kept on the stack: unlike Blocks,
// whose interface return value forces the cursor to the heap, a whole
// walk allocates nothing. Blocks are passed by value; their slices are
// zero-copy views invalidated by the next iteration, exactly as with
// Cursor.Next. The simulator's block loop takes this path for in-memory
// traces (through Walk), which is what lets steady-state replays report
// zero allocations per run.
func (t *Trace) WalkBlocks(opts CursorOpts, fn func(Block) bool) error {
	c := t.blockCursor(opts)
	var b Block
	for c.Next(&b) {
		if !fn(b) {
			break
		}
	}
	return c.Err()
}

// Walk streams any source's blocks through fn (stopping early when fn
// returns false) and returns the cursor's error. In-memory traces walk
// through WalkBlocks, so a whole walk over one allocates nothing; other
// sources walk a Blocks cursor, closed before Walk returns.
func Walk(src Source, opts CursorOpts, fn func(Block) bool) error {
	if t, ok := src.(*Trace); ok {
		return t.WalkBlocks(opts, fn)
	}
	cur := src.Blocks(opts)
	defer cur.Close()
	var b Block
	for cur.Next(&b) {
		if !fn(b) {
			break
		}
	}
	return cur.Err()
}

// blockCursor returns the concrete cursor by value so the hot in-memory
// replay path can keep it on the stack.
func (t *Trace) blockCursor(opts CursorOpts) memCursor {
	return memCursor{columns: t.whole(), max: opts.MaxBlock, withSites: opts.WithSites && t.sitesOn}
}

// memCursor cuts blocks out of a set of columns: each block runs from
// the current reference to the next directive, which closes it, or to
// the end of the columns, capped at max references. It serves a whole
// in-memory trace, and each decoded chunk of a streamed one.
type memCursor struct {
	columns
	max       int // block cap; 0 = unbounded
	withSites bool

	ri int // references consumed
	di int // directives consumed
}

// Next implements Cursor.
func (c *memCursor) Next(b *Block) bool {
	b.Pages = nil
	b.Sites = nil
	b.HasDir = false
	b.DirSite = NoSite
	if c.ri >= len(c.pages) && c.di >= len(c.dirs) {
		return false
	}
	hi := len(c.pages)
	dirNext := false
	if c.di < len(c.dirs) {
		hi = c.dirs[c.di].refsBefore
		dirNext = true
	}
	if c.max > 0 && hi-c.ri > c.max {
		hi = c.ri + c.max
		dirNext = false
	}
	b.Pages = c.pages[c.ri:hi]
	if c.withSites {
		b.Sites = c.sites[c.ri:hi]
	}
	c.ri = hi
	if dirNext {
		b.HasDir = true
		b.Dir = c.dirs[c.di].ev
		if c.withSites {
			b.DirSite = c.dirSites[c.di]
		}
		c.di++
	}
	return true
}

// Err implements Cursor; in-memory iteration cannot fail.
func (c *memCursor) Err() error { return nil }

// Close implements Cursor.
func (c *memCursor) Close() error { return nil }

var _ Source = (*Trace)(nil)
var _ Cursor = (*memCursor)(nil)
