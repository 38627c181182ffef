// Package mem models the paged virtual address space that the paper's
// simulator assumes: a byte-addressed space with 256-byte pages (the §5
// configuration), column-major FORTRAN arrays laid out page-aligned so
// that an array's virtual size in pages is exactly AVS = ⌈M·N/P⌉ as the
// paper computes it, and 4-byte REAL elements.
package mem

import (
	"fmt"
	"math/big"

	"cdmm/internal/fortran"
)

// ElemSize is the bytes of one array element: a FORTRAN REAL*4.
const ElemSize = 4

// Geometry describes the paging parameters of the simulated machine.
type Geometry struct {
	PageSize int // bytes per page; the paper uses 256
}

// DefaultGeometry is the paper's configuration: 256-byte pages, 64
// elements per page.
var DefaultGeometry = Geometry{PageSize: 256}

// ElemsPerPage returns how many array elements fit in one page.
func (g Geometry) ElemsPerPage() int { return g.PageSize / ElemSize }

// PagesFor returns the number of pages needed to hold n elements
// (the paper's AVS for n = M·N, CVS for n = M).
func (g Geometry) PagesFor(n int) int {
	per := g.ElemsPerPage()
	return (n + per - 1) / per
}

// Validate checks that the geometry is usable.
func (g Geometry) Validate() error {
	if g.PageSize <= 0 {
		return fmt.Errorf("mem: page size %d must be positive", g.PageSize)
	}
	if g.PageSize%ElemSize != 0 {
		return fmt.Errorf("mem: page size %d not a multiple of element size %d", g.PageSize, ElemSize)
	}
	return nil
}

// MaxElems bounds the array elements a program may declare, per array
// and summed over all of its arrays. The interpreter allocates every
// declared element up front (one float64 each), so the bound caps that
// storage at 128 MiB; the suite's largest program, CONDUCT, declares
// 16,984 elements.
const MaxElems = 1 << 24

// Page is a virtual page number within a program's address space.
type Page int32

// Segment is the page range occupied by one array.
type Segment struct {
	Name  string
	Base  Page // first page
	Pages int  // AVS
	Rows  int  // M
	Cols  int  // N (1 for vectors)
}

// End returns one past the last page of the segment.
func (s Segment) End() Page { return s.Base + Page(s.Pages) }

// Elem returns the column-major linear index of the 1-based (row, col)
// element (col is 1 for vectors). It reports false when the subscript
// falls outside the array.
func (s Segment) Elem(row, col int) (int, bool) {
	if row < 1 || row > s.Rows || col < 1 || col > s.Cols {
		return 0, false
	}
	return (col-1)*s.Rows + (row - 1), true
}

// BoundsError is the error for a (row, col) subscript Elem rejects.
func (s Segment) BoundsError(row, col int) error {
	return fmt.Errorf("mem: %s(%d,%d) out of bounds (%dx%d)", s.Name, row, col, s.Rows, s.Cols)
}

// Layout maps each declared array to a page-aligned segment of the virtual
// space, in declaration order.
type Layout struct {
	Geo      Geometry
	Segments []Segment
	byName   map[string]int
	total    int
}

// NewLayout builds the address-space layout for a program's arrays. It
// rejects a program declaring more than MaxElems elements, in one array
// or in all of them together.
func NewLayout(prog *fortran.Program, geo Geometry) (*Layout, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	l := &Layout{Geo: geo, byName: make(map[string]int, len(prog.Arrays))}
	next := Page(0)
	declared := 0
	for _, a := range prog.Arrays {
		rows, cols := a.Rows(), a.Cols()
		if rows > MaxElems/cols {
			n := new(big.Int).Mul(big.NewInt(int64(rows)), big.NewInt(int64(cols)))
			return nil, fmt.Errorf("mem: array %s declares %s elements, over the limit of %d", a.Name, n, MaxElems)
		}
		declared += rows * cols
		if declared > MaxElems {
			return nil, fmt.Errorf("mem: array %s brings the program to %d declared elements, over the limit of %d",
				a.Name, declared, MaxElems)
		}
		seg := Segment{
			Name:  a.Name,
			Base:  next,
			Pages: geo.PagesFor(rows * cols),
			Rows:  rows,
			Cols:  cols,
		}
		l.byName[a.Name] = len(l.Segments)
		l.Segments = append(l.Segments, seg)
		next = seg.End()
	}
	l.total = int(next)
	return l, nil
}

// TotalPages returns V, the virtual size of the program's data space in
// pages (the paper's upper bound on memory requirement).
func (l *Layout) TotalPages() int { return l.total }

// Segment returns the segment for the named array.
func (l *Layout) Segment(name string) (Segment, bool) {
	i, ok := l.byName[name]
	if !ok {
		return Segment{}, false
	}
	return l.Segments[i], true
}

// PageOf maps a 1-based (row, col) element reference of the named array to
// its virtual page, using column-major order. col is 1 for vectors.
// Out-of-bounds subscripts are an error (FORTRAN programs in the workload
// suite are expected to stay in bounds; the simulator checks).
func (l *Layout) PageOf(name string, row, col int) (Page, error) {
	i, ok := l.byName[name]
	if !ok {
		return 0, fmt.Errorf("mem: array %s not in layout", name)
	}
	s := l.Segments[i]
	elem, ok := s.Elem(row, col)
	if !ok {
		return 0, s.BoundsError(row, col)
	}
	return s.Base + Page(elem/l.Geo.ElemsPerPage()), nil
}

// AVS returns the array virtual size in pages for the named array, per the
// paper's AVS = (M×N)/P definition (rounded up to whole pages).
func (l *Layout) AVS(name string) int {
	if s, ok := l.Segment(name); ok {
		return s.Pages
	}
	return 0
}

// CVS returns the column virtual size in pages, CVS = M/P rounded up.
func (l *Layout) CVS(name string) int {
	s, ok := l.Segment(name)
	if !ok {
		return 0
	}
	return l.Geo.PagesFor(s.Rows)
}
