package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
)

// traceMagic opens every trace file. CDT3, the columnar chunked layout
// of cdt3.go, is the one format this package reads and writes.
const traceMagic = "CDT3"

// DecodeError describes a structural problem found while decoding a
// binary trace: truncation, corruption, or values outside the ranges
// the format can legitimately hold. Section names the part of the
// stream being read; Index is the entry within it (-1 when not
// applicable).
type DecodeError struct {
	Section string
	Index   int64
	Err     error
}

func (e *DecodeError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("trace: decode %s[%d]: %v", e.Section, e.Index, e.Err)
	}
	return fmt.Sprintf("trace: decode %s: %v", e.Section, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

func decodeErr(section string, index int64, err error) *DecodeError {
	return &DecodeError{Section: section, Index: index, Err: err}
}

// writeSideTables serializes the directive side tables.
func writeSideTables(cw *countWriter, tb *SideTables) {
	cw.uvarint(uint64(len(tb.Allocs)))
	for _, a := range tb.Allocs {
		cw.str(a.Label)
		cw.uvarint(uint64(len(a.Arms)))
		for _, arm := range a.Arms {
			cw.varint(int64(arm.PI))
			cw.varint(int64(arm.X))
		}
	}

	cw.uvarint(uint64(len(tb.LockSets)))
	for _, ls := range tb.LockSets {
		cw.varint(int64(ls.PJ))
		cw.varint(int64(ls.Site))
		cw.uvarint(uint64(len(ls.Pages)))
		for _, p := range ls.Pages {
			cw.varint(int64(p))
		}
	}

	cw.uvarint(uint64(len(tb.UnlockSets)))
	for _, ps := range tb.UnlockSets {
		cw.uvarint(uint64(len(ps)))
		for _, p := range ps {
			cw.varint(int64(p))
		}
	}
}

// writeSiteTable serializes the site table.
func writeSiteTable(cw *countWriter, sites []Site) {
	cw.uvarint(uint64(len(sites)))
	for _, s := range sites {
		cw.str(s.Nest)
		cw.varint(int64(s.Line))
		cw.str(s.Array)
		cw.str(s.Expr)
	}
}

// readSideTables decodes the directive side tables of a CDT3 header.
// The site table, when present, follows separately.
func readSideTables(cr *countReader) (SideTables, error) {
	var tb SideTables
	nAllocs := cr.uvarint()
	for i := uint64(0); i < nAllocs; i++ {
		a := AllocDirective{Label: cr.str()}
		nArms := cr.uvarint()
		for k := uint64(0); k < nArms && cr.err == nil; k++ {
			a.Arms = append(a.Arms, directive.Arm{PI: int(cr.varint31()), X: int(cr.varint31())})
		}
		if cr.err != nil {
			return tb, decodeErr("alloc table", int64(i), cr.err)
		}
		tb.Allocs = append(tb.Allocs, a)
	}
	if cr.err != nil {
		return tb, decodeErr("alloc table", -1, cr.err)
	}

	nLocks := cr.uvarint()
	for i := uint64(0); i < nLocks; i++ {
		ls := LockSet{PJ: int(cr.varint31()), Site: int(cr.varint31())}
		nPages := cr.uvarint()
		for k := uint64(0); k < nPages && cr.err == nil; k++ {
			ls.Pages = append(ls.Pages, mem.Page(cr.page()))
		}
		if cr.err != nil {
			return tb, decodeErr("lock table", int64(i), cr.err)
		}
		tb.LockSets = append(tb.LockSets, ls)
	}
	if cr.err != nil {
		return tb, decodeErr("lock table", -1, cr.err)
	}

	nUnlocks := cr.uvarint()
	for i := uint64(0); i < nUnlocks; i++ {
		nPages := cr.uvarint()
		var ps []mem.Page
		for k := uint64(0); k < nPages && cr.err == nil; k++ {
			ps = append(ps, mem.Page(cr.page()))
		}
		if cr.err != nil {
			return tb, decodeErr("unlock table", int64(i), cr.err)
		}
		tb.UnlockSets = append(tb.UnlockSets, ps)
	}
	if cr.err != nil {
		return tb, decodeErr("unlock table", -1, cr.err)
	}
	return tb, nil
}

// readSiteTable decodes the site table.
func readSiteTable(cr *countReader) ([]Site, error) {
	var sites []Site
	nSites := cr.uvarint()
	for i := uint64(0); i < nSites; i++ {
		s := Site{Nest: cr.str(), Line: int(cr.varint31()), Array: cr.str(), Expr: cr.str()}
		if cr.err != nil {
			return nil, decodeErr("site table", int64(i), cr.err)
		}
		sites = append(sites, s)
	}
	if cr.err != nil {
		return nil, decodeErr("site table", -1, cr.err)
	}
	return sites, nil
}

// readSiteRuns decodes a site-run column into runs (reusing its
// storage), checking every run against the site table and that the runs
// cover exactly the given number of events. Every run holds at least one
// event, so the coverage check also bounds how many runs are decoded.
func readSiteRuns(cr *countReader, runs []siteRun, nSites int, events int64) ([]siteRun, error) {
	runs = runs[:0]
	var total int64
	nRuns := cr.uvarint()
	for i := uint64(0); i < nRuns && cr.err == nil; i++ {
		n := cr.varint31u()
		site := cr.varint31()
		switch {
		case cr.err != nil:
		case n == 0:
			cr.err = fmt.Errorf("empty site run")
		case int32(site) != NoSite && (site < 0 || int(site) >= nSites):
			cr.err = fmt.Errorf("site %d of %d", site, nSites)
		case total+int64(n) > events:
			cr.err = fmt.Errorf("site runs overrun %d events", events)
		default:
			total += int64(n)
			runs = append(runs, siteRun{n: int32(n), site: int32(site)})
		}
	}
	if cr.err == nil && total != events {
		cr.err = fmt.Errorf("site runs cover %d of %d events", total, events)
	}
	return runs, cr.err
}

// readMagic consumes the magic and rejects anything but CDT3.
func readMagic(r io.Reader) error {
	var magic [len(traceMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return decodeErr("magic", -1, err)
	}
	if string(magic[:]) != traceMagic {
		return decodeErr("magic", -1, fmt.Errorf("bad magic %q (want %q)", magic[:], traceMagic))
	}
	return nil
}

// Read decodes a CDT3 trace into an in-memory Trace. Any structural
// defect — truncation, bad magic, out-of-range table indexes, negative
// pages, values overflowing the on-disk width, totals the stream does
// not hold — is reported as a *DecodeError; Read never panics on corrupt
// input, and it sizes nothing from a declared count, only from what it
// has decoded.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	if err := readMagic(br); err != nil {
		return nil, err
	}
	return readCDT3(&countReader{r: br})
}

// countWriter accumulates write errors and byte counts.
type countWriter struct {
	w   *bufio.Writer
	n   int64
	err error
	buf [binary.MaxVarintLen64]byte
}

func (c *countWriter) bytes(b []byte) error {
	if c.err != nil {
		return c.err
	}
	n, err := c.w.Write(b)
	c.n += int64(n)
	c.err = err
	return err
}

func (c *countWriter) byte(b byte) {
	if c.err != nil {
		return
	}
	c.err = c.w.WriteByte(b)
	if c.err == nil {
		c.n++
	}
}

func (c *countWriter) uvarint(v uint64) {
	n := binary.PutUvarint(c.buf[:], v)
	_ = c.bytes(c.buf[:n])
}

func (c *countWriter) varint(v int64) {
	n := binary.PutVarint(c.buf[:], v)
	_ = c.bytes(c.buf[:n])
}

func (c *countWriter) str(s string) {
	c.uvarint(uint64(len(s)))
	_ = c.bytes([]byte(s))
}

// countReader accumulates read errors and counts consumed bytes, so the
// chunked CDT3 reader can record where the header ends and the chunk
// stream begins.
type countReader struct {
	r   *bufio.Reader
	n   int64
	err error
}

func (c *countReader) byte() byte {
	if c.err != nil {
		return 0
	}
	b, err := c.r.ReadByte()
	c.err = err
	if err == nil {
		c.n++
	}
	return b
}

// uvarint decodes a varint byte by byte (rather than via
// binary.ReadUvarint) so the consumed-byte count stays exact.
func (c *countReader) uvarint() uint64 {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b := c.byte()
		if c.err != nil {
			return 0
		}
		if i == binary.MaxVarintLen64 {
			c.err = fmt.Errorf("varint overflows 64 bits")
			return 0
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				c.err = fmt.Errorf("varint overflows 64 bits")
				return 0
			}
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

func (c *countReader) varint() int64 {
	ux := c.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// varint31 reads a varint and rejects values outside the int32 range,
// the widest any trace field legitimately uses; the previous silent
// int32 truncation turned corrupt bytes into plausible-looking values.
func (c *countReader) varint31() int64 {
	v := c.varint()
	if c.err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		c.err = fmt.Errorf("value %d overflows int32", v)
	}
	return v
}

// varint31u reads a uvarint and rejects values outside the int32 range.
func (c *countReader) varint31u() uint64 {
	v := c.uvarint()
	if c.err == nil && v > math.MaxInt32 {
		c.err = fmt.Errorf("value %d overflows int32", v)
	}
	return v
}

// page reads a page number, which must be non-negative.
func (c *countReader) page() int64 {
	v := c.varint31()
	if c.err == nil && v < 0 {
		c.err = fmt.Errorf("negative page %d", v)
	}
	return v
}

func (c *countReader) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > 1<<20 {
		c.err = fmt.Errorf("string length %d too large", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(c.r, b); err != nil {
		c.err = err
		return ""
	}
	c.n += int64(len(b))
	return string(b)
}
