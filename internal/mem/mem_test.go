package mem

import (
	"strings"
	"testing"
	"testing/quick"

	"cdmm/internal/fortran"
)

func layoutFor(t *testing.T, src string) *Layout {
	t.Helper()
	prog, err := fortran.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(prog, DefaultGeometry)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestGeometryDefaults(t *testing.T) {
	g := DefaultGeometry
	if g.ElemsPerPage() != 64 {
		t.Errorf("elems/page = %d, want 64", g.ElemsPerPage())
	}
	if g.PagesFor(64) != 1 || g.PagesFor(65) != 2 || g.PagesFor(1) != 1 || g.PagesFor(0) != 0 {
		t.Errorf("PagesFor wrong: %d %d %d %d", g.PagesFor(64), g.PagesFor(65), g.PagesFor(1), g.PagesFor(0))
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := (Geometry{PageSize: 256}).Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	if err := (Geometry{PageSize: 0}).Validate(); err == nil {
		t.Error("zero page size accepted")
	}
	if err := (Geometry{PageSize: 250}).Validate(); err == nil {
		t.Error("non-multiple page size accepted")
	}
}

func TestLayoutSegments(t *testing.T) {
	l := layoutFor(t, "PROGRAM P\nDIMENSION A(64,2), V(65)\nEND\n")
	a, ok := l.Segment("A")
	if !ok {
		t.Fatal("A missing")
	}
	if a.Base != 0 || a.Pages != 2 {
		t.Errorf("A = %+v, want base 0 pages 2", a)
	}
	v, ok := l.Segment("V")
	if !ok {
		t.Fatal("V missing")
	}
	if v.Base != 2 || v.Pages != 2 {
		t.Errorf("V = %+v, want base 2 pages 2", v)
	}
	if l.TotalPages() != 4 {
		t.Errorf("V total = %d, want 4", l.TotalPages())
	}
}

func TestColumnMajorPageOf(t *testing.T) {
	// A(128, 3): each column = 128 elements = 2 pages.
	l := layoutFor(t, "PROGRAM P\nDIMENSION A(128,3)\nEND\n")
	cases := []struct {
		row, col int
		want     Page
	}{
		{1, 1, 0},   // first element
		{64, 1, 0},  // last element of page 0
		{65, 1, 1},  // first of page 1
		{128, 1, 1}, // end of column 1
		{1, 2, 2},   // column 2 starts on page 2
		{128, 3, 5}, // last element
	}
	for _, c := range cases {
		got, err := l.PageOf("A", c.row, c.col)
		if err != nil {
			t.Fatalf("PageOf(A,%d,%d): %v", c.row, c.col, err)
		}
		if got != c.want {
			t.Errorf("PageOf(A,%d,%d) = %d, want %d", c.row, c.col, got, c.want)
		}
	}
}

func TestPageOfBounds(t *testing.T) {
	l := layoutFor(t, "PROGRAM P\nDIMENSION A(10,10)\nEND\n")
	for _, rc := range [][2]int{{0, 1}, {1, 0}, {11, 1}, {1, 11}} {
		if _, err := l.PageOf("A", rc[0], rc[1]); err == nil {
			t.Errorf("PageOf(A,%d,%d) should fail", rc[0], rc[1])
		}
	}
	if _, err := l.PageOf("NOPE", 1, 1); err == nil {
		t.Error("unknown array should fail")
	}
}

func TestAVSAndCVS(t *testing.T) {
	// The paper's formulas: AVS = M*N/P, CVS = M/P (pages).
	l := layoutFor(t, "PROGRAM P\nDIMENSION A(200,100), V(500)\nEND\n")
	if got := l.AVS("A"); got != 313 { // ceil(20000/64)
		t.Errorf("AVS(A) = %d, want 313", got)
	}
	if got := l.CVS("A"); got != 4 { // ceil(200/64)
		t.Errorf("CVS(A) = %d, want 4", got)
	}
	if got := l.AVS("V"); got != 8 { // ceil(500/64)
		t.Errorf("AVS(V) = %d, want 8", got)
	}
	if got := l.AVS("MISSING"); got != 0 {
		t.Errorf("AVS of unknown = %d, want 0", got)
	}
}

// Property: every valid (row, col) maps into the array's own segment, and
// consecutive rows within a column map to non-decreasing pages.
func TestPageOfProperties(t *testing.T) {
	l := layoutFor(t, "PROGRAM P\nDIMENSION A(100,7), B(311)\nEND\n")
	segA, _ := l.Segment("A")
	f := func(row, col uint8) bool {
		r := int(row)%100 + 1
		c := int(col)%7 + 1
		p, err := l.PageOf("A", r, c)
		if err != nil {
			return false
		}
		if p < segA.Base || p >= segA.End() {
			return false
		}
		if r < 100 {
			p2, err := l.PageOf("A", r+1, c)
			if err != nil || p2 < p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNewLayoutBoundsDeclaredElements(t *testing.T) {
	for _, c := range []struct {
		dims string
		err  string // "" means accepted
	}{
		{"A(16777216)", ""},
		{"A(4096,4096)", ""},
		{"A(16777217)", "mem: array A declares 16777217 elements, over the limit of 16777216"},
		{"A(2000000000)", "mem: array A declares 2000000000 elements, over the limit of 16777216"},
		{"A(2000000000), B(2000000000)", "mem: array A declares 2000000000 elements"},
		{"A(100000,100000)", "mem: array A declares 10000000000 elements"},
		{"A(3000000000,3000000000)", "mem: array A declares 9000000000000000000 elements"},
		{"A(4000000000000,4000000)", "mem: array A declares 16000000000000000000 elements"},
		{"A(70000000000000000)", "mem: array A declares 70000000000000000 elements"},
		{"A(10000000), B(10000000)", "mem: array B brings the program to 20000000 declared elements, over the limit of 16777216"},
	} {
		prog, err := fortran.Parse("PROGRAM P\nDIMENSION " + c.dims + "\nEND\n")
		if err != nil {
			t.Fatalf("%s: %v", c.dims, err)
		}
		l, err := NewLayout(prog, DefaultGeometry)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: rejected at the limit: %v", c.dims, err)
		case c.err == "" && l.TotalPages() != MaxElems/DefaultGeometry.ElemsPerPage():
			t.Errorf("%s: V = %d, want %d", c.dims, l.TotalPages(), MaxElems/DefaultGeometry.ElemsPerPage())
		case c.err != "" && (err == nil || !strings.HasPrefix(err.Error(), c.err)):
			t.Errorf("%s: err = %v, want prefix %q", c.dims, err, c.err)
		}
	}
}
