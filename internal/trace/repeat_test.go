package trace

import (
	"bytes"
	"testing"

	"cdmm/internal/mem"
)

// refString flattens a source's page references through its cursor.
func refString(t *testing.T, src Source, opts CursorOpts) []mem.Page {
	t.Helper()
	cur := src.Blocks(opts)
	defer cur.Close()
	var out []mem.Page
	var b Block
	for cur.Next(&b) {
		out = append(out, b.Pages...)
		if b.HasDir {
			t.Fatalf("repeated stream produced a directive event %v", b.Dir)
		}
		if b.Sites != nil {
			t.Fatal("repeated stream produced a site column")
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRepeatSource checks that Repeat concatenates the reference string
// n times, drops directives and sites, reports consistent totals, and
// that the repeated stream encodes to a CDT3 file the strict full
// decoder accepts with matching audit counters.
func TestRepeatSource(t *testing.T) {
	base := sitedSampleTrace()
	baseRefs := base.Pages()

	for _, n := range []int{1, 2, 5} {
		rep := Repeat(base, n)
		m := rep.Meta()
		if m.Refs != n*base.Refs || m.Events != m.Refs {
			t.Fatalf("n=%d: Meta refs=%d events=%d, want refs=%d events=refs",
				n, m.Refs, m.Events, n*base.Refs)
		}
		if m.Distinct != base.Distinct || m.MaxPage != base.MaxPage() {
			t.Fatalf("n=%d: Meta universe drifted: %+v", n, m)
		}
		if m.HasSites {
			t.Fatalf("n=%d: repeated stream claims a site column", n)
		}

		got := refString(t, rep, CursorOpts{})
		want := make([]mem.Page, 0, n*len(baseRefs))
		for i := 0; i < n; i++ {
			want = append(want, baseRefs...)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d refs streamed, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: ref %d = %d, want %d", n, i, got[i], want[i])
			}
		}

		// MaxBlock still caps block sizes through the repetition.
		cur := rep.Blocks(CursorOpts{MaxBlock: 7})
		var b Block
		total := 0
		for cur.Next(&b) {
			if len(b.Pages) > 7 {
				t.Fatalf("n=%d: block of %d refs exceeds MaxBlock=7", n, len(b.Pages))
			}
			total += len(b.Pages)
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		cur.Close()
		if total != len(want) {
			t.Fatalf("n=%d: capped cursor streamed %d refs, want %d", n, total, len(want))
		}

		// The repeated stream must encode to a CDT3 file the strict
		// whole-trace decoder (distinct audit included) accepts.
		var buf bytes.Buffer
		if _, err := WriteCDT3(&buf, rep, 64); err != nil {
			t.Fatalf("n=%d: WriteCDT3: %v", n, err)
		}
		tr, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: full decode of repeated CDT3: %v", n, err)
		}
		if tr.Refs != n*base.Refs || tr.Meta().Events != tr.Refs {
			t.Fatalf("n=%d: decoded refs=%d events=%d", n, tr.Refs, tr.Meta().Events)
		}
		if tr.Distinct != base.Distinct {
			t.Fatalf("n=%d: decoded distinct=%d, want %d", n, tr.Distinct, base.Distinct)
		}
	}
}
