package trace

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"cdmm/internal/mem"
)

// builderSizes are the reference counts the builder tests cover: empty,
// one, either side of one chunk, and several chunks and a partial one.
var builderSizes = []int{0, 1, chunkRefs - 1, chunkRefs, chunkRefs + 1, 3*chunkRefs + 17}

// atEdge reports whether reference i sits next to a chunk boundary.
func atEdge(i int) bool {
	switch i % chunkRefs {
	case 0, 1, chunkRefs - 1:
		return true
	}
	return false
}

// buildScript builds a trace of n references with a LOCK and a site
// change at every chunk edge, through the chunked builder, and the same
// trace appended column by column with no chunks. Sites, when on, are
// enabled at reference sitesAt (after the first chunk where there is
// one); before it every event is unattributed.
func buildScript(n int, sites bool) (built, ref *Trace) {
	name := fmt.Sprintf("n%d-sites%v", n, sites)
	sitesAt := min(n, chunkRefs+5)
	built = New(name)
	ref = &Trace{Name: name, maxPage: -1, curSite: NoSite}
	seen := map[mem.Page]bool{}
	var lockSites int
	lock := func(i int) {
		pages := []mem.Page{mem.Page(i % 97)}
		built.AddLock(1, lockSites, pages)
		ref.LockSets = append(ref.LockSets, LockSet{PJ: 1, Site: lockSites, Pages: pages})
		ref.cols.dirs = append(ref.cols.dirs, dirPos{refsBefore: len(ref.cols.pages), ev: Event{Kind: EvLock, Arg: int32(lockSites)}})
		if ref.sitesOn {
			ref.cols.dirSites = append(ref.cols.dirSites, ref.curSite)
		}
		lockSites++
	}
	setSite := func(i int) {
		if !ref.sitesOn {
			ref.sitesOn = true
			ref.cols.sites = appendNoSites(nil, len(ref.cols.pages))
			ref.cols.dirSites = appendNoSites(nil, len(ref.cols.dirs))
		}
		s := Site{Line: i, Expr: "A(I)"}
		ref.Sites = append(ref.Sites, s)
		ref.curSite = built.AddSite(s)
		built.SetSite(ref.curSite)
	}
	for i := 0; i <= n; i++ {
		if sites && i >= sitesAt && (i == sitesAt || atEdge(i)) {
			setSite(i)
		}
		if atEdge(i) {
			lock(i)
		}
		if i == n {
			break
		}
		p := mem.Page((i*7919 + i/1000) % 5003)
		built.AddRef(p)
		ref.cols.pages = append(ref.cols.pages, p)
		if ref.sitesOn {
			ref.cols.sites = append(ref.cols.sites, ref.curSite)
		}
		ref.Refs++
		ref.maxPage = max(ref.maxPage, p)
		if !seen[p] {
			seen[p] = true
			ref.Distinct++
		}
	}
	return built, ref
}

// sameBlocks reports whether two sources cut into the same blocks.
func sameBlocks(got, want Source, opts CursorOpts) bool {
	gc, wc := got.Blocks(opts), want.Blocks(opts)
	var g, w Block
	for {
		gok, wok := gc.Next(&g), wc.Next(&w)
		if gok != wok {
			return false
		}
		if !gok {
			return true
		}
		if !slices.Equal(g.Pages, w.Pages) || !slices.Equal(g.Sites, w.Sites) ||
			g.HasDir != w.HasDir || g.Dir != w.Dir || g.DirSite != w.DirSite {
			return false
		}
	}
}

// sameTrace requires got to read exactly like want: pages, totals,
// blocks at several caps with and without sites, and CDT3 bytes at
// several chunk sizes.
func sameTrace(t *testing.T, got, want *Trace, tag string) {
	t.Helper()
	if !slices.Equal(got.Pages(), want.Pages()) {
		t.Fatalf("%s: pages differ", tag)
	}
	if got.Meta() != want.Meta() {
		t.Fatalf("%s: meta %+v, want %+v", tag, got.Meta(), want.Meta())
	}
	for _, max := range []int{0, 1, 7, chunkRefs - 1, chunkRefs, chunkRefs + 1} {
		for _, withSites := range []bool{false, true} {
			opts := CursorOpts{MaxBlock: max, WithSites: withSites}
			if !sameBlocks(got, want, opts) {
				t.Fatalf("%s: blocks at %+v differ", tag, opts)
			}
		}
	}
	for _, chunk := range []int{0, 1000, chunkRefs + 1} {
		if !bytes.Equal(encodeCDT3(t, got, chunk), encodeCDT3(t, want, chunk)) {
			t.Fatalf("%s: CDT3 bytes at chunk %d differ", tag, chunk)
		}
	}
}

// TestChunkedBuilderMatchesAppended: a trace built in chunks and
// finished reads exactly like the same trace appended column by column,
// and so do its views.
func TestChunkedBuilderMatchesAppended(t *testing.T) {
	for _, n := range builderSizes {
		for _, sites := range []bool{false, true} {
			built, ref := buildScript(n, sites)
			built.Finish()
			tag := built.Name
			sameTrace(t, built, ref, tag)
			sameTrace(t, built.WithoutSites(), ref.WithoutSites(), tag+" WithoutSites")
			sameTrace(t, built.RefsOnly(), ref.RefsOnly(), tag+" RefsOnly")
			if built.HasSites() != sites || len(built.Sites) != len(ref.Sites) {
				t.Fatalf("%s: HasSites=%v with %d sites, want %v with %d", tag, built.HasSites(), len(built.Sites), sites, len(ref.Sites))
			}
		}
	}
}

// TestUnfinishedTraceFailsLoudly: while chunks are set aside every
// reader of the columns panics, and a trace shorter than one chunk is
// whole without Finish, which then copies nothing.
func TestUnfinishedTraceFailsLoudly(t *testing.T) {
	long, _ := buildScript(chunkRefs+1, true)
	for name, read := range map[string]func(){
		"Pages":        func() { long.Pages() },
		"Blocks":       func() { long.Blocks(CursorOpts{}) },
		"WalkBlocks":   func() { _ = long.WalkBlocks(CursorOpts{}, func(Block) bool { return true }) },
		"RefsOnly":     func() { long.RefsOnly() },
		"WithoutSites": func() { long.WithoutSites() },
		"WriteCDT3":    func() { _, _ = WriteCDT3(&bytes.Buffer{}, long, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of an unfinished %d-reference trace did not panic", name, long.Refs)
				}
			}()
			read()
		}()
	}
	if m := long.Meta(); m.Refs != chunkRefs+1 {
		t.Errorf("Meta of an unfinished trace counts %d references, want %d", m.Refs, chunkRefs+1)
	}
	long.Finish()
	_ = long.Pages()

	short, _ := buildScript(chunkRefs, true)
	before := short.Pages()
	short.Finish()
	if after := short.Pages(); &after[0] != &before[0] {
		t.Error("finishing a one-chunk trace copied its page column")
	}
}

// TestDecodersFinish: a trace decoded from CDT3 is finished, whatever
// chunk size wrote it.
func TestDecodersFinish(t *testing.T) {
	built, _ := buildScript(3*chunkRefs+17, true)
	built.Finish()
	for _, chunk := range []int{0, 1000} {
		back, err := Read(bytes.NewReader(encodeCDT3(t, built, chunk)))
		if err != nil {
			t.Fatal(err)
		}
		if len(back.spilled) != 0 {
			t.Fatalf("chunk %d: Read returned a trace with %d chunks set aside", chunk, len(back.spilled))
		}
		sameTrace(t, back, built, fmt.Sprintf("decoded at chunk %d", chunk))
	}
}
