// CDT3: the columnar, chunked trace format, the one this package reads
// and writes. It stores the event stream column by column, the shape an
// in-memory Trace has. Strings are a uvarint length and the bytes.
//
//	magic "CDT3"
//	name            (string)
//	flags           (byte; bit0 = site column present)
//	events          (uvarint: total events, references + directives)
//	refs            (uvarint: R, page references)
//	distinct        (uvarint: V, distinct pages)
//	maxPage         (varint; -1 when there are no references)
//	alloc table     (uvarint count; per entry: label string, uvarint arm
//	                 count, per arm: varint PI, varint X)
//	lock table      (uvarint count; per entry: varint PJ, varint site,
//	                 uvarint page count, varint pages)
//	unlock table    (uvarint count; per entry: uvarint page count,
//	                 varint pages)
//	site table      (only when flagged: uvarint count; per site: nest
//	                 string, varint line, array string, expr string)
//	chunks…         (see below)
//	terminator      (uvarint 0)
//
// Each chunk frames a bounded slice of the stream:
//
//	n               (uvarint: events in the chunk; 0 terminates)
//	nRefs           (uvarint: page references in the chunk, ≤ n)
//	page column     (nRefs varints: zigzag delta from the previous
//	                 reference's page; the predecessor carries across
//	                 chunks and starts at 0)
//	dir column      (n−nRefs entries: uvarint gap — references since the
//	                 previous directive in the chunk, from the chunk
//	                 start for the first — then kind byte and arg varint)
//	site runs       (only when flagged: uvarint count, then per run
//	                 uvarint length + varint site, covering exactly the
//	                 chunk's n events)
//
// Numerical reference strings are runs of adjacent pages, so the delta
// column is mostly ±1 and encodes in one byte per reference; directives
// are rare, so the side-band costs nothing. Because every count is
// declared up front, a reader can replay a multi-GB file holding one
// chunk's columns at a time — that is what FileSource does. The declared
// totals are checked against the stream, never trusted to size memory.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"cdmm/internal/mem"
)

// DefaultChunkEvents is the chunk size WriteCDT3 uses when none is
// given: big enough to amortize framing, small enough that a streaming
// reader's working set stays in cache.
const DefaultChunkEvents = 1 << 16

// maxChunkEvents bounds the chunk size a reader will accept (and a
// writer will produce), so corrupt counts cannot balloon the O(chunk)
// decode buffers.
const maxChunkEvents = 1 << 24

// CDT3Stats breaks a written CDT3 file into its sections, for
// `cdmm trace -stat`.
type CDT3Stats struct {
	HeaderBytes int64 // magic, name, flags, totals
	TableBytes  int64 // alloc/lock/unlock (+ site) tables
	PageBytes   int64 // delta-encoded page columns
	DirBytes    int64 // directive side-band columns
	SiteBytes   int64 // RLE site-run columns
	FrameBytes  int64 // chunk count framing + terminator
	TotalBytes  int64
	Chunks      int
	Events      int
	Refs        int
}

// WriteCDT3 encodes any Source as a CDT3 stream. chunkEvents bounds the
// events per chunk: 0 selects DefaultChunkEvents, and a size above the
// 2^24 events a reader accepts fails. The same source and chunk size
// always produce identical bytes, so re-encoding a decoded file
// round-trips exactly. The header is written from the source's Meta
// before its stream is read, so a source whose stream disagrees with
// its Meta (a streamed file whose header lies) fails instead of ending
// the output with a terminator.
func WriteCDT3(w io.Writer, src Source, chunkEvents int) (int64, error) {
	return writeCDT3(w, src, chunkEvents, nil)
}

// WriteCDT3Stats is WriteCDT3 with a per-section byte breakdown.
func WriteCDT3Stats(w io.Writer, src Source, chunkEvents int, st *CDT3Stats) (int64, error) {
	return writeCDT3(w, src, chunkEvents, st)
}

func writeCDT3(w io.Writer, src Source, chunkEvents int, st *CDT3Stats) (int64, error) {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	if chunkEvents > maxChunkEvents {
		return 0, fmt.Errorf("trace: chunks of %d events exceed the limit of %d", chunkEvents, maxChunkEvents)
	}
	meta := src.Meta()
	tb := src.Tables()
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}

	_ = cw.bytes([]byte(traceMagic))
	cw.str(meta.Name)
	var flags byte
	if meta.HasSites {
		flags |= 1
	}
	cw.byte(flags)
	cw.uvarint(uint64(meta.Events))
	cw.uvarint(uint64(meta.Refs))
	cw.uvarint(uint64(meta.Distinct))
	cw.varint(int64(meta.MaxPage))
	headerEnd := cw.n

	writeSideTables(cw, tb)
	if meta.HasSites {
		writeSiteTable(cw, tb.Sites)
	}
	tablesEnd := cw.n

	enc := cdt3ChunkWriter{cw: cw, cap: chunkEvents, sites: meta.HasSites, st: st,
		got: Meta{Name: meta.Name, MaxPage: -1, HasSites: meta.HasSites}}
	cur := src.Blocks(CursorOpts{WithSites: meta.HasSites})
	defer cur.Close()
	var b Block
	for cur.Next(&b) {
		enc.addBlock(&b)
		if cw.err != nil {
			break
		}
	}
	if err := cur.Err(); err != nil {
		return cw.n, err
	}
	enc.flush()
	if g := enc.got; cw.err == nil && g != meta {
		return cw.n, fmt.Errorf("trace: %s streams %d events, %d refs, %d distinct pages up to page %d; its header declares %d, %d, %d up to %d",
			meta.Name, g.Events, g.Refs, g.Distinct, g.MaxPage, meta.Events, meta.Refs, meta.Distinct, meta.MaxPage)
	}
	frameStart := cw.n
	cw.uvarint(0)

	if cw.err != nil {
		return cw.n, cw.err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	if st != nil {
		st.HeaderBytes = headerEnd
		st.TableBytes = tablesEnd - headerEnd
		st.FrameBytes += cw.n - frameStart
		st.TotalBytes = cw.n
		st.Events = meta.Events
		st.Refs = meta.Refs
	}
	return cw.n, nil
}

// siteRun is one run of an on-disk site column: the next n events all
// carry the same site id (NoSite for unattributed stretches).
type siteRun struct {
	n    int32
	site int32
}

// cdt3ChunkWriter accumulates blocks into bounded chunks and flushes
// each as one framed columnar record.
type cdt3ChunkWriter struct {
	cw    *countWriter
	cap   int
	sites bool
	st    *CDT3Stats

	// got counts the totals the stream holds, checked against the
	// header's.
	got  Meta
	seen pageSet

	pages    []mem.Page
	dirs     []dirPos // positions relative to the chunk start
	runs     []siteRun
	prevPage int64 // carries across chunks
}

func (e *cdt3ChunkWriter) events() int { return len(e.pages) + len(e.dirs) }

func (e *cdt3ChunkWriter) addBlock(b *Block) {
	e.got.Events += b.Events()
	e.got.Refs += len(b.Pages)
	for i, pg := range b.Pages {
		if e.events() >= e.cap {
			e.flush()
		}
		if e.seen.add(pg) {
			e.got.Distinct++
		}
		e.got.MaxPage = max(e.got.MaxPage, pg)
		e.pages = append(e.pages, pg)
		if e.sites {
			site := NoSite
			if b.Sites != nil {
				site = b.Sites[i]
			}
			e.noteRun(site)
		}
	}
	if b.HasDir {
		if e.events() >= e.cap {
			e.flush()
		}
		e.dirs = append(e.dirs, dirPos{refsBefore: len(e.pages), ev: b.Dir})
		if e.sites {
			e.noteRun(b.DirSite)
		}
	}
}

// noteRun extends the chunk's site column by one event.
func (e *cdt3ChunkWriter) noteRun(site int32) {
	if last := len(e.runs) - 1; last >= 0 && e.runs[last].site == site &&
		e.runs[last].n < math.MaxInt32 {
		e.runs[last].n++
		return
	}
	e.runs = append(e.runs, siteRun{n: 1, site: site})
}

func (e *cdt3ChunkWriter) flush() {
	n := e.events()
	if n == 0 {
		return
	}
	cw := e.cw
	mark := cw.n
	cw.uvarint(uint64(n))
	cw.uvarint(uint64(len(e.pages)))
	if e.st != nil {
		e.st.FrameBytes += cw.n - mark
		e.st.Chunks++
		mark = cw.n
	}
	for _, pg := range e.pages {
		cw.varint(int64(pg) - e.prevPage)
		e.prevPage = int64(pg)
	}
	if e.st != nil {
		e.st.PageBytes += cw.n - mark
		mark = cw.n
	}
	prevRefs := 0
	for _, d := range e.dirs {
		cw.uvarint(uint64(d.refsBefore - prevRefs))
		cw.byte(byte(d.ev.Kind))
		cw.varint(int64(d.ev.Arg))
		prevRefs = d.refsBefore
	}
	if e.st != nil {
		e.st.DirBytes += cw.n - mark
		mark = cw.n
	}
	if e.sites {
		cw.uvarint(uint64(len(e.runs)))
		for _, r := range e.runs {
			cw.uvarint(uint64(r.n))
			cw.varint(int64(r.site))
		}
		if e.st != nil {
			e.st.SiteBytes += cw.n - mark
		}
	}
	e.pages = e.pages[:0]
	e.dirs = e.dirs[:0]
	e.runs = e.runs[:0]
}

// --- header ---------------------------------------------------------

// cdt3Header is the decoded fixed part of a CDT3 file.
type cdt3Header struct {
	name     string
	hasSites bool
	events   int64
	refs     int64
	distinct int64
	maxPage  mem.Page
	tables   SideTables
}

// readCDT3Header decodes everything between the magic and the chunk
// stream.
func readCDT3Header(cr *countReader) (*cdt3Header, error) {
	h := &cdt3Header{}
	h.name = cr.str()
	flags := cr.byte()
	if cr.err != nil {
		return nil, decodeErr("header", -1, cr.err)
	}
	if flags&^1 != 0 {
		return nil, decodeErr("header", -1, fmt.Errorf("unknown flags %#x", flags))
	}
	h.hasSites = flags&1 != 0
	events := cr.uvarint()
	refs := cr.uvarint()
	distinct := cr.uvarint()
	maxPage := cr.varint()
	if cr.err != nil {
		return nil, decodeErr("header", -1, cr.err)
	}
	const maxTotal = math.MaxInt64 / 4
	if events > maxTotal || refs > events || distinct > refs {
		return nil, decodeErr("header", -1, fmt.Errorf("inconsistent totals events=%d refs=%d distinct=%d", events, refs, distinct))
	}
	if maxPage < -1 || maxPage > math.MaxInt32 {
		return nil, decodeErr("header", -1, fmt.Errorf("max page %d out of range", maxPage))
	}
	if (refs == 0) != (maxPage == -1) {
		return nil, decodeErr("header", -1, fmt.Errorf("refs=%d with max page %d", refs, maxPage))
	}
	h.events, h.refs, h.distinct = int64(events), int64(refs), int64(distinct)
	h.maxPage = mem.Page(maxPage)

	var err error
	if h.tables, err = readSideTables(cr); err != nil {
		return nil, err
	}
	if h.hasSites {
		if h.tables.Sites, err = readSiteTable(cr); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// --- chunk reader ---------------------------------------------------

// cdt3ChunkReader decodes the chunk stream one chunk at a time into the
// columns a Trace holds, validating every count against the header: the
// events, references and distinct pages the stream holds and its
// highest page. It is shared by the full decoder (readCDT3) and the
// streaming cursor (fileCursor).
type cdt3ChunkReader struct {
	cr  *countReader
	hdr *cdt3Header

	// Decoded current chunk, with the site runs expanded to one id per
	// event when sites is set; buffers are reused across chunks.
	cols  columns
	runs  []siteRun
	sites bool

	prevPage int64
	seenEv   int64
	seenRefs int64
	// pages, distinct and pageEnd track the pages referenced so far:
	// the set, its size, and one past the highest.
	pages    pageSet
	distinct int64
	pageEnd  int64
	chunk    int64 // index of the chunk being decoded, for errors
	done     bool
	err      error
}

// next decodes the next chunk into the reused buffers, returning false
// at the terminator or on error (check err).
func (d *cdt3ChunkReader) next() bool {
	if d.done || d.err != nil {
		return false
	}
	cr := d.cr
	n := cr.uvarint()
	if cr.err != nil {
		d.fail(decodeErr("chunk", d.chunk, cr.err))
		return false
	}
	if n == 0 {
		h := d.hdr
		if d.seenEv != h.events || d.seenRefs != h.refs || d.distinct != h.distinct || d.pageEnd-1 != int64(h.maxPage) {
			d.fail(decodeErr("chunk", d.chunk, fmt.Errorf("stream holds %d events, %d refs, %d distinct pages up to page %d; its header declares %d, %d, %d up to %d",
				d.seenEv, d.seenRefs, d.distinct, d.pageEnd-1, h.events, h.refs, h.distinct, h.maxPage)))
			return false
		}
		d.done = true
		return false
	}
	if n > maxChunkEvents {
		d.fail(decodeErr("chunk", d.chunk, fmt.Errorf("chunk of %d events exceeds limit %d", n, maxChunkEvents)))
		return false
	}
	nRefs := cr.uvarint()
	if cr.err != nil {
		d.fail(decodeErr("chunk", d.chunk, cr.err))
		return false
	}
	if nRefs > n {
		d.fail(decodeErr("chunk", d.chunk, fmt.Errorf("%d refs in chunk of %d events", nRefs, n)))
		return false
	}
	if d.seenEv+int64(n) > d.hdr.events || d.seenRefs+int64(nRefs) > d.hdr.refs {
		d.fail(decodeErr("chunk", d.chunk, fmt.Errorf("chunk overruns header totals")))
		return false
	}

	c := &d.cols
	c.pages = c.pages[:0]
	for i := uint64(0); i < nRefs; i++ {
		pg := d.prevPage + cr.varint()
		if cr.err != nil {
			d.fail(decodeErr("page column", int64(i), cr.err))
			return false
		}
		if pg < 0 || pg > int64(d.hdr.maxPage) {
			d.fail(decodeErr("page column", int64(i), fmt.Errorf("page %d outside [0, %d]", pg, d.hdr.maxPage)))
			return false
		}
		d.prevPage = pg
		if !d.pages.has(mem.Page(pg)) && d.pages.add(mem.Page(pg)) {
			if d.distinct++; d.distinct > d.hdr.distinct {
				d.fail(decodeErr("page column", int64(i), fmt.Errorf("stream references more than the %d distinct pages it declares", d.hdr.distinct)))
				return false
			}
		}
		d.pageEnd = max(d.pageEnd, pg+1)
		c.pages = append(c.pages, mem.Page(pg))
	}

	c.dirs = c.dirs[:0]
	nDirs := n - nRefs
	pos := int64(0)
	for i := uint64(0); i < nDirs; i++ {
		gap := cr.uvarint()
		kind := EventKind(cr.byte())
		arg := cr.varint31()
		if cr.err != nil {
			d.fail(decodeErr("dir column", int64(i), cr.err))
			return false
		}
		pos += int64(gap)
		if pos > int64(nRefs) {
			d.fail(decodeErr("dir column", int64(i), fmt.Errorf("directive at ref %d of %d", pos, nRefs)))
			return false
		}
		switch kind {
		case EvAlloc, EvLock, EvUnlock:
		default:
			d.fail(decodeErr("dir column", int64(i), fmt.Errorf("unknown kind %d", kind)))
			return false
		}
		if arg < 0 || int(arg) >= d.hdr.tables.count(kind) {
			d.fail(decodeErr("dir column", int64(i), fmt.Errorf("%v index %d out of range", kind, arg)))
			return false
		}
		c.dirs = append(c.dirs, dirPos{refsBefore: int(pos), ev: Event{Kind: kind, Arg: int32(arg)}})
	}

	if d.hdr.hasSites {
		var err error
		if d.runs, err = readSiteRuns(cr, d.runs, len(d.hdr.tables.Sites), int64(n)); err != nil {
			d.fail(decodeErr("site runs", d.chunk, err))
			return false
		}
		if d.sites {
			d.expandRuns()
		}
	}

	d.seenEv += int64(n)
	d.seenRefs += int64(nRefs)
	d.chunk++
	return true
}

// expandRuns spreads the chunk's site runs, which cover its events in
// stream order, over the reference and directive site columns. The
// directives at a reference position precede the reference there.
func (d *cdt3ChunkReader) expandRuns() {
	c := &d.cols
	c.sites, c.dirSites = c.sites[:0], c.dirSites[:0]
	for _, r := range d.runs {
		for k := int32(0); k < r.n; k++ {
			if di := len(c.dirSites); di < len(c.dirs) && c.dirs[di].refsBefore == len(c.sites) {
				c.dirSites = append(c.dirSites, r.site)
			} else {
				c.sites = append(c.sites, r.site)
			}
		}
	}
}

func (d *cdt3ChunkReader) fail(err error) {
	d.err = err
	d.done = true
}

// --- full decode ----------------------------------------------------

// readCDT3 materializes a CDT3 stream, past its magic, as an in-memory
// Trace for Read. The trace grows chunk by chunk through Append; the
// chunk reader checks the header's totals against what the chunks hold.
func readCDT3(cr *countReader) (*Trace, error) {
	hdr, err := readCDT3Header(cr)
	if err != nil {
		return nil, err
	}
	t := New(hdr.name)
	t.SideTables = hdr.tables
	if hdr.hasSites {
		t.enableSites()
	}
	d := cdt3ChunkReader{cr: cr, hdr: hdr, sites: hdr.hasSites}
	for d.next() {
		chunk := memCursor{columns: d.cols, withSites: hdr.hasSites}
		var b Block
		for chunk.Next(&b) {
			for i, pg := range b.Pages {
				if hdr.hasSites {
					t.SetSite(b.Sites[i])
				}
				t.Append(Event{Kind: EvRef, Arg: int32(pg)})
			}
			if b.HasDir {
				if hdr.hasSites {
					t.SetSite(b.DirSite)
				}
				t.Append(b.Dir)
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return t, nil
}

// --- streaming file source ------------------------------------------

// FileSource replays a CDT3 file in O(chunk) memory: the header and
// side tables are decoded once at open, and each cursor walks the chunk
// stream holding one chunk's columns at a time. The descriptor opened by
// OpenCDT3 is shared by all cursors — each reads through its own
// io.SectionReader (positionless ReadAt), so concurrent replays never
// contend on a seek offset — and retired cursors park in a pool with
// their decode buffers, so repeated replays re-walk the file without
// reallocating them.
type FileSource struct {
	f       *os.File
	size    int64
	meta    Meta
	hdr     *cdt3Header
	dataOff int64     // file offset of the first chunk
	pool    sync.Pool // retired *fileCursor, decode buffers warm
}

// OpenCDT3 opens path as a streaming CDT3 source, decoding the header
// and side tables eagerly (so Meta and Tables are O(1)) and nothing
// else. The returned source keeps the descriptor open for its cursors;
// Close releases it (an unclosed source's descriptor is reclaimed by
// the *os.File finalizer).
func OpenCDT3(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := openCDT3(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return src, nil
}

// openCDT3 reads the magic and header from f. Every event takes at
// least one byte of the chunk stream, so a header declaring more events
// than the file has bytes left is rejected here — which bounds every
// total in Meta, and so anything a replay pre-sizes from them, by the
// file size.
func openCDT3(f *os.File) (*FileSource, error) {
	cr := &countReader{r: bufio.NewReader(f)}
	if err := readMagic(cr.r); err != nil {
		return nil, err
	}
	hdr, err := readCDT3Header(cr)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	dataOff := int64(len(traceMagic)) + cr.n
	if rest := fi.Size() - dataOff; hdr.events > rest {
		return nil, decodeErr("header", -1, fmt.Errorf("%d events declared with %d bytes of chunks left", hdr.events, rest))
	}
	return &FileSource{
		f:    f,
		size: fi.Size(),
		meta: Meta{
			Name:     hdr.name,
			Events:   int(hdr.events),
			Refs:     int(hdr.refs),
			Distinct: int(hdr.distinct),
			MaxPage:  hdr.maxPage,
			HasSites: hdr.hasSites,
		},
		hdr:     hdr,
		dataOff: dataOff,
	}, nil
}

// Meta implements Source.
func (s *FileSource) Meta() Meta { return s.meta }

// Tables implements Source.
func (s *FileSource) Tables() *SideTables { return &s.hdr.tables }

// Close releases the shared descriptor. Cursors opened before Close
// keep working only until their buffered reader drains; walks started
// after Close fail with the file-closed error. Close is idempotent in
// the os.File sense (the second call returns os.ErrClosed).
func (s *FileSource) Close() error { return s.f.Close() }

// Blocks implements Source. Cursors read the shared descriptor through
// an io.SectionReader (positionless ReadAt), so concurrent replays do
// not share a read position, and the cursor itself — bufio reader plus
// chunk decode buffers — is recycled through the source's pool: a
// steady-state re-walk of the file costs one SectionReader, not a
// reopened descriptor and freshly grown chunk columns.
func (s *FileSource) Blocks(opts CursorOpts) Cursor {
	sec := io.NewSectionReader(s.f, s.dataOff, s.size-s.dataOff)
	c, _ := s.pool.Get().(*fileCursor)
	if c == nil {
		c = &fileCursor{br: bufio.NewReader(sec)}
	} else {
		c.br.Reset(sec)
	}
	c.src = s
	c.cr = countReader{r: c.br}
	withSites := opts.WithSites && s.meta.HasSites
	c.dec.pages.reset()
	c.dec = cdt3ChunkReader{cr: &c.cr, hdr: s.hdr, cols: c.dec.cols, runs: c.dec.runs, pages: c.dec.pages, sites: withSites}
	c.chunk = memCursor{max: opts.MaxBlock, withSites: withSites}
	c.closed = false
	return c
}

var _ Source = (*FileSource)(nil)

// fileCursor serves blocks out of one decoded chunk at a time, through
// the same block cutter an in-memory trace uses.
type fileCursor struct {
	src    *FileSource
	br     *bufio.Reader
	cr     countReader
	dec    cdt3ChunkReader
	chunk  memCursor // over the current chunk's columns
	closed bool
}

// Next implements Cursor.
func (c *fileCursor) Next(b *Block) bool {
	for !c.chunk.Next(b) {
		if c.closed || !c.dec.next() {
			return false
		}
		c.chunk = memCursor{columns: c.dec.cols, max: c.chunk.max, withSites: c.chunk.withSites}
	}
	return true
}

// Err implements Cursor.
func (c *fileCursor) Err() error { return c.dec.err }

// Close implements Cursor: the cursor is parked in the source's pool
// (decode buffers intact) for the next Blocks call to reuse. The shared
// descriptor stays open — it belongs to the FileSource.
func (c *fileCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.chunk = memCursor{}
	if c.src != nil {
		c.src.pool.Put(c)
	}
	return nil
}

var _ Cursor = (*fileCursor)(nil)
