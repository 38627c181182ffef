package trace

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
)

// sitedSampleTrace is sampleTrace with a site column: attributed runs,
// unattributed stretches, and a directive site, so the RLE re-merge
// across chunk boundaries is exercised.
func sitedSampleTrace() *Trace {
	tr := New("SITED")
	sA := tr.AddSite(Site{Nest: "DO 10", Line: 10, Array: "A", Expr: "A(I)"})
	sB := tr.AddSite(Site{Nest: "DO 10 / DO 20", Line: 11, Array: "B", Expr: "B(I,J)"})
	sD := tr.AddSite(Site{Line: 5, Expr: "ALLOCATE"})
	d1 := &directive.Allocate{Arms: []directive.Arm{{PI: 3, X: 111}, {PI: 1, X: 4}}}
	tr.SetSite(sD)
	tr.AddAlloc(d1)
	tr.SetSite(sA)
	for i := 0; i < 40; i++ {
		tr.AddRef(mem.Page(i % 7))
	}
	tr.SetSite(NoSite)
	tr.AddRef(99)
	tr.AddLock(2, 7, []mem.Page{5, 6})
	tr.SetSite(sB)
	for i := 0; i < 60; i++ {
		tr.AddRef(mem.Page(i % 11))
	}
	tr.AddUnlock([]mem.Page{5, 6})
	return tr
}

// encodeCDT3 writes src at the given chunk size and fails the test on
// error.
func encodeCDT3(t *testing.T, src Source, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteCDT3(&buf, src, chunk); err != nil {
		t.Fatalf("WriteCDT3: %v", err)
	}
	return buf.Bytes()
}

// flattenSource replays src through a cursor and rebuilds the row view:
// the event stream plus (when requested) the per-event site ids.
func flattenSource(t *testing.T, src Source, opts CursorOpts) (events []Event, sites []int32) {
	t.Helper()
	cur := src.Blocks(opts)
	defer cur.Close()
	var b Block
	for cur.Next(&b) {
		if opts.MaxBlock > 0 && len(b.Pages) > opts.MaxBlock {
			t.Fatalf("block of %d pages exceeds MaxBlock=%d", len(b.Pages), opts.MaxBlock)
		}
		for i, pg := range b.Pages {
			events = append(events, Event{Kind: EvRef, Arg: int32(pg)})
			if opts.WithSites {
				site := NoSite
				if b.Sites != nil {
					site = b.Sites[i]
				}
				sites = append(sites, site)
			}
		}
		if b.HasDir {
			events = append(events, b.Dir)
			if opts.WithSites {
				sites = append(sites, b.DirSite)
			}
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	return events, sites
}

// eventsOf flattens a source's event stream through its cursor.
func eventsOf(t *testing.T, src Source) []Event {
	t.Helper()
	events, _ := flattenSource(t, src, CursorOpts{})
	return events
}

// sitesOf flattens a source's per-event site ids through its cursor.
func sitesOf(t *testing.T, src Source) []int32 {
	t.Helper()
	_, sites := flattenSource(t, src, CursorOpts{WithSites: true})
	return sites
}

// Two tiny CDT3 files whose header totals are far larger than their
// bodies: 2^42 events declared and none present; refs = distinct = 2^40
// and max page 2^31-1 declared with one reference present. Decoders that
// sized memory from the totals died of out-of-memory on them.
var (
	hostileEvents   = mustHex("434454330158008080808080800100000100000000")
	hostileDistinct = mustHex("43445433015800808080808020808080808020808080808020feffffff0f00000001010000")
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func sameEvents(t *testing.T, got, want []Event, tag string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", tag, i, got[i], want[i])
		}
	}
}

func sameSites(t *testing.T, got, want []int32, tag string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sites, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: site %d = %d, want %d", tag, i, got[i], want[i])
		}
	}
}

// TestHostileTotals: headers declaring totals their bodies do not hold
// are rejected as *DecodeError by the full decoder and at open, before
// anything is sized from them.
func TestHostileTotals(t *testing.T) {
	for name, data := range map[string][]byte{"events": hostileEvents, "distinct": hostileDistinct} {
		var de *DecodeError
		if _, err := Read(bytes.NewReader(data)); !errors.As(err, &de) {
			t.Errorf("%s: Read returned %v, want a *DecodeError", name, err)
		}
		path := filepath.Join(t.TempDir(), name+".cdt3")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCDT3(path); !errors.As(err, &de) {
			t.Errorf("%s: OpenCDT3 returned %v, want a *DecodeError", name, err)
		}
	}
}

// TestWriteRejectsLyingHeader: files whose streams hold fewer distinct
// pages, or a lower max page, than their headers declare open, but a
// cursor walk fails at the terminator with a *DecodeError, so
// re-encoding one fails instead of copying the lie into a terminated
// file; Read rejects them with the same error.
func TestWriteRejectsLyingHeader(t *testing.T) {
	for name, data := range map[string][]byte{
		// Two references to page 0 under headers declaring two distinct
		// pages, or max page 5.
		"distinct": mustHex("43445433" + "01480002020200000000" + "0202000000"),
		"maxpage":  mustHex("43445433" + "0148000202010a000000" + "0202000000"),
	} {
		_, rerr := Read(bytes.NewReader(data))
		if rerr == nil {
			t.Errorf("%s: Read succeeded", name)
		}
		path := filepath.Join(t.TempDir(), name+".cdt3")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenCDT3(path)
		if err != nil {
			t.Fatalf("%s: OpenCDT3: %v", name, err)
		}
		cur := src.Blocks(CursorOpts{})
		refs := 0
		var b Block
		for cur.Next(&b) {
			refs += len(b.Pages)
		}
		var de *DecodeError
		if cerr := cur.Err(); !errors.As(cerr, &de) || rerr == nil || cerr.Error() != rerr.Error() {
			t.Errorf("%s: cursor error %v after %d refs, want a *DecodeError equal to Read's %v", name, cerr, refs, rerr)
		}
		cur.Close()
		_, err = WriteCDT3(io.Discard, src, 0)
		if err == nil || !strings.Contains(err.Error(), "its header declares") {
			t.Errorf("%s: WriteCDT3 returned %v, want the header mismatch", name, err)
		}
		src.Close()
	}
}

// TestCDT3RoundTrip: encode → decode reproduces the event stream, the
// counters, the side tables and the site column, and re-encoding the
// decoded trace at the same chunk size is byte-identical (the contract
// `cdmm trace -check` relies on).
func TestCDT3RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{
		{"siteless", sampleTrace()},
		{"sited", sitedSampleTrace()},
		{"empty", New("EMPTY")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := encodeCDT3(t, tc.tr, 0)
			got, err := Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if got.Name != tc.tr.Name || got.Refs != tc.tr.Refs || got.Distinct != tc.tr.Distinct {
				t.Fatalf("decoded %s refs=%d distinct=%d, want %s %d %d",
					got.Name, got.Refs, got.Distinct, tc.tr.Name, tc.tr.Refs, tc.tr.Distinct)
			}
			sameEvents(t, eventsOf(t, got), eventsOf(t, tc.tr), "events")
			if got.HasSites() != tc.tr.HasSites() {
				t.Fatalf("HasSites=%v, want %v", got.HasSites(), tc.tr.HasSites())
			}
			if tc.tr.HasSites() {
				sameSites(t, sitesOf(t, got), sitesOf(t, tc.tr), "site column")
				if len(got.Sites) != len(tc.tr.Sites) || got.Sites[0] != tc.tr.Sites[0] {
					t.Fatalf("site table = %+v, want %+v", got.Sites, tc.tr.Sites)
				}
			}
			if len(got.Allocs) != len(tc.tr.Allocs) || len(got.LockSets) != len(tc.tr.LockSets) ||
				len(got.UnlockSets) != len(tc.tr.UnlockSets) {
				t.Fatalf("side tables %d/%d/%d, want %d/%d/%d",
					len(got.Allocs), len(got.LockSets), len(got.UnlockSets),
					len(tc.tr.Allocs), len(tc.tr.LockSets), len(tc.tr.UnlockSets))
			}
			again := encodeCDT3(t, got, 0)
			if !bytes.Equal(again, raw) {
				t.Fatalf("re-encode differs: %d bytes vs %d", len(again), len(raw))
			}
		})
	}
}

// TestCDT3ChunkSplit re-encodes at tiny chunk sizes: the delta column's
// predecessor must carry across chunk boundaries and split site runs
// must re-merge on decode, so every chunk size reproduces the same trace.
func TestCDT3ChunkSplit(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(), sitedSampleTrace()} {
		for _, chunk := range []int{1, 2, 3, 5, 17, 64} {
			raw := encodeCDT3(t, tr, chunk)
			got, err := Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("%s chunk=%d: %v", tr.Name, chunk, err)
			}
			sameEvents(t, eventsOf(t, got), eventsOf(t, tr), tr.Name)
			if tr.HasSites() {
				sameSites(t, sitesOf(t, got), sitesOf(t, tr), tr.Name)
			}
			// Determinism: same source, same chunk → same bytes.
			if !bytes.Equal(encodeCDT3(t, got, chunk), raw) {
				t.Fatalf("%s chunk=%d: re-encode differs", tr.Name, chunk)
			}
		}
	}
}

// writeTempCDT3 writes the trace as a CDT3 file under t.TempDir.
func writeTempCDT3(t *testing.T, tr *Trace, chunk int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), tr.Name+".cdt3")
	if err := os.WriteFile(path, encodeCDT3(t, tr, chunk), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCDT3FileSourceStreams: a FileSource cursor must reproduce the
// in-memory cursor's stream exactly — pages, directive order, site ids —
// across chunk sizes and MaxBlock caps, with Meta intact.
func TestCDT3FileSourceStreams(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(), sitedSampleTrace()} {
		for _, chunk := range []int{3, 64, 0} {
			src, err := OpenCDT3(writeTempCDT3(t, tr, chunk))
			if err != nil {
				t.Fatalf("%s chunk=%d: %v", tr.Name, chunk, err)
			}
			if m := src.Meta(); m != tr.Meta() {
				t.Fatalf("%s chunk=%d: Meta %+v, want %+v", tr.Name, chunk, m, tr.Meta())
			}
			for _, opts := range []CursorOpts{
				{},
				{WithSites: true},
				{MaxBlock: 1},
				{MaxBlock: 7, WithSites: true},
			} {
				wantEv, wantSites := flattenSource(t, tr, opts)
				gotEv, gotSites := flattenSource(t, src, opts)
				tag := tr.Name
				sameEvents(t, gotEv, wantEv, tag)
				sameSites(t, gotSites, wantSites, tag)
			}
		}
	}
}

// TestCDT3FileCursorIndependence: two cursors over one FileSource hold
// independent read positions.
func TestCDT3FileCursorIndependence(t *testing.T) {
	tr := sampleTrace()
	src, err := OpenCDT3(writeTempCDT3(t, tr, 16))
	if err != nil {
		t.Fatal(err)
	}
	c1 := src.Blocks(CursorOpts{MaxBlock: 1})
	defer c1.Close()
	var b Block
	for i := 0; i < 3; i++ {
		if !c1.Next(&b) {
			t.Fatal("c1 exhausted early")
		}
	}
	ev2, _ := flattenSource(t, src, CursorOpts{})
	sameEvents(t, ev2, eventsOf(t, tr), "fresh cursor after partial read")
	if c1.Err() != nil {
		t.Fatalf("c1 disturbed: %v", c1.Err())
	}
}

// TestCDT3Truncation: every truncation of a valid file either fails to
// open or fails the cursor mid-stream with a *DecodeError — never a
// silent short stream (the trailing terminator chunk guarantees this).
func TestCDT3Truncation(t *testing.T) {
	tr := sitedSampleTrace()
	raw := encodeCDT3(t, tr, 16)
	dir := t.TempDir()
	for cut := 0; cut < len(raw); cut++ {
		path := filepath.Join(dir, "cut.cdt3")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenCDT3(path)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("cut=%d: open error is not a *DecodeError: %v", cut, err)
			}
			continue
		}
		cur := src.Blocks(CursorOpts{})
		var b Block
		for cur.Next(&b) {
		}
		err = cur.Err()
		cur.Close()
		if err == nil {
			t.Fatalf("cut=%d/%d: truncated stream replayed without error", cut, len(raw))
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("cut=%d: cursor error is not a *DecodeError: %v", cut, err)
		}
	}
}

// TestCDT3Corruption: targeted corruptions are rejected as *DecodeError
// by both the full decoder and the streaming cursor.
func TestCDT3Corruption(t *testing.T) {
	tr := sampleTrace()
	raw := encodeCDT3(t, tr, 16)
	corrupt := func(mut func(d []byte)) []byte {
		d := append([]byte(nil), raw...)
		mut(d)
		return d
	}
	cases := map[string][]byte{
		"bad magic": corrupt(func(d []byte) { d[3] = '9' }),
		"bad flags": corrupt(func(d []byte) { d[4+1+len(tr.Name)] = 0xff }),
		"events bumped": corrupt(func(d []byte) {
			// The events uvarint directly follows the flags byte.
			d[4+1+len(tr.Name)+1]++
		}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(data))
			if err == nil {
				t.Fatal("full decode accepted corrupt stream")
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("not a *DecodeError: %v", err)
			}

			path := filepath.Join(t.TempDir(), "bad.cdt3")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := OpenCDT3(path)
			if err != nil {
				if !errors.As(err, &de) {
					t.Fatalf("open error is not a *DecodeError: %v", err)
				}
				return
			}
			cur := src.Blocks(CursorOpts{})
			var b Block
			for cur.Next(&b) {
			}
			if err := cur.Err(); err == nil {
				t.Fatal("stream replayed corrupt file without error")
			} else if !errors.As(err, &de) {
				t.Fatalf("cursor error is not a *DecodeError: %v", err)
			}
			cur.Close()
		})
	}
}

// TestCDT3StatsAddUp: the per-section byte breakdown partitions the file.
func TestCDT3StatsAddUp(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(), sitedSampleTrace()} {
		for _, chunk := range []int{5, 0} {
			var buf bytes.Buffer
			var st CDT3Stats
			n, err := WriteCDT3Stats(&buf, tr, chunk, &st)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) || st.TotalBytes != n {
				t.Fatalf("%s: wrote %d bytes, returned %d, stats total %d", tr.Name, buf.Len(), n, st.TotalBytes)
			}
			sum := st.HeaderBytes + st.TableBytes + st.PageBytes + st.DirBytes + st.SiteBytes + st.FrameBytes
			if sum != st.TotalBytes {
				t.Fatalf("%s chunk=%d: sections sum to %d, total %d (%+v)", tr.Name, chunk, sum, st.TotalBytes, st)
			}
			if st.Events != tr.Meta().Events || st.Refs != tr.Refs {
				t.Fatalf("%s: stats events/refs %d/%d, want %d/%d", tr.Name, st.Events, st.Refs, tr.Meta().Events, tr.Refs)
			}
			if !tr.HasSites() && st.SiteBytes != 0 {
				t.Fatalf("%s: %d site bytes on a siteless trace", tr.Name, st.SiteBytes)
			}
		}
	}
}

// TestOpenSourceSniffs: OpenCDT3 recognizes a trace by its content, so
// a CDT3 file streams whatever its name.
func TestOpenSourceSniffs(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := os.WriteFile(path, encodeCDT3(t, tr, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenCDT3(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sameEvents(t, eventsOf(t, src), eventsOf(t, tr), "streamed")
}
