// Package locality implements the paper's §2 analysis: computing the
// virtual size of program localities from the source code using the six
// parameters — page size P, array size Σ (AVS/CVS), loop nest depth Δ,
// number of distinct index expressions X, order of reference Θ, and
// reference level Λ.
//
// The paper applies these parameters "in a non-deterministic manner" (by
// hand) and notes a deterministic procedure was being developed; this
// package is that deterministic procedure, calibrated against the paper's
// two worked examples (Figure 1 and the Figure 5 discussion of arrays A,
// B, C, D, E, F, CC and DD).
//
// Two related quantities are computed per loop:
//
//   - ActiveSize: the number of pages the program needs resident while the
//     loop executes — the X argument of the ALLOCATE directive. This
//     follows the paper's upper-bound arithmetic (X = Xr·Xc for
//     column-wise arrays, X = Xr·N for row-wise arrays, full AVS for
//     arrays whose whole space is re-referenced at this level).
//   - Conceptual locality sets: the Figure 1 view of which arrays form a
//     locality at each loop level (e.g. loop 20 there forms no locality;
//     loop 30 forms {G_i, H_i}; loop 10 forms {E, F}).
package locality

import (
	"fmt"
	"sort"
	"strings"

	"cdmm/internal/mem"
	"cdmm/internal/sem"
)

// Params configures the analysis.
type Params struct {
	// MinResident is the system-default minimum allocation in pages, used
	// when a loop forms no locality ("X is evaluated to the minimum number
	// of pages which a program is allocated by system default").
	MinResident int
}

// DefaultParams matches the evaluation setup.
var DefaultParams = Params{MinResident: 2}

// Group aggregates all references to one array that share the same
// innermost loop, the unit over which the paper counts distinct index
// expressions.
type Group struct {
	Array string
	Loop  *sem.Loop // innermost loop containing the references
	Refs  []*sem.ArrayRef

	Order sem.RefOrder
	Keys  int // X: distinct subscript tuples
	Xr    int // distinct row-subscript expressions
	Xc    int // distinct column-subscript expressions

	// Deep is the deepest loop driving the fast-varying subscript (the
	// column-traversal loop for column-wise refs, the row-traversal loop
	// for row-wise refs, the single driver for vectors/diagonals).
	// Shallow is the loop driving the other subscript, or nil.
	Deep, Shallow *sem.Loop
}

// Analysis holds the per-loop locality sizes for one program.
type Analysis struct {
	Info   *sem.Info
	Layout *mem.Layout
	Params Params
	Groups []*Group

	active map[*sem.Loop]int
}

// Analyze computes locality sizes for every loop in the program.
func Analyze(info *sem.Info, layout *mem.Layout, params Params) *Analysis {
	a := &Analysis{
		Info:   info,
		Layout: layout,
		Params: params,
		active: make(map[*sem.Loop]int),
	}
	a.buildGroups()
	for _, l := range info.Loops {
		a.active[l] = a.computeActive(l)
	}
	// Enforce the paper's X₁ ≥ X₂ ≥ … property along every nest chain:
	// while an outer loop runs, its inner loops' localities will be needed,
	// so an outer allocation is at least the largest inner one.
	var raise func(l *sem.Loop) int
	raise = func(l *sem.Loop) int {
		x := a.active[l]
		for _, c := range l.Children {
			if cx := raise(c); cx > x {
				x = cx
			}
		}
		a.active[l] = x
		return x
	}
	for _, top := range info.Root.Children {
		raise(top)
	}
	return a
}

// buildGroups clusters references by (array, innermost loop).
func (a *Analysis) buildGroups() {
	type key struct {
		array string
		loop  *sem.Loop
	}
	idx := map[key]*Group{}
	var order []key
	collect := func(l *sem.Loop) {
		for _, r := range l.Refs {
			k := key{r.Array.Name, l}
			g := idx[k]
			if g == nil {
				g = &Group{Array: r.Array.Name, Loop: l}
				idx[k] = g
				order = append(order, k)
			}
			g.Refs = append(g.Refs, r)
		}
	}
	var walk func(l *sem.Loop)
	walk = func(l *sem.Loop) {
		collect(l)
		for _, c := range l.Children {
			walk(c)
		}
	}
	walk(a.Info.Root)

	for _, k := range order {
		g := idx[k]
		g.Keys = sem.DistinctKeys(g.Refs)
		g.Xr = sem.DistinctRowKeys(g.Refs)
		g.Xc = sem.DistinctColKeys(g.Refs)
		g.Order, g.Deep, g.Shallow = classifyGroup(g.Refs)
		a.Groups = append(a.Groups, g)
	}
}

// classifyGroup derives the group-level Θ and driver loops by merging the
// per-reference classification: the deepest drivers across all refs win.
func classifyGroup(refs []*sem.ArrayRef) (sem.RefOrder, *sem.Loop, *sem.Loop) {
	var rowD, colD *sem.Loop
	for _, r := range refs {
		if r.RowDriver != nil && (rowD == nil || r.RowDriver.Depth > rowD.Depth) {
			rowD = r.RowDriver
		}
		if r.ColDriver != nil && (colD == nil || r.ColDriver.Depth > colD.Depth) {
			colD = r.ColDriver
		}
	}
	return sem.Classify(refs[0].Array.IsVector(), rowD, colD)
}

// ActiveSize returns the ALLOCATE X for the loop: the number of pages the
// program needs while the loop runs, floored at MinResident.
func (a *Analysis) ActiveSize(l *sem.Loop) int {
	if v, ok := a.active[l]; ok {
		return v
	}
	return a.Params.MinResident
}

// computeActive sums, over all arrays referenced in the loop's subtree,
// the maximum contribution among the array's reference groups.
func (a *Analysis) computeActive(l *sem.Loop) int {
	byArray := map[string]int{}
	for _, g := range a.Groups {
		if !l.Encloses(g.Loop) {
			continue
		}
		c := a.Contribution(g, l)
		if c > byArray[g.Array] {
			byArray[g.Array] = c
		}
	}
	total := 0
	for _, c := range byArray {
		total += c
	}
	if total < a.Params.MinResident {
		total = a.Params.MinResident
	}
	return total
}

// Contribution computes the number of pages group g contributes to the
// locality of loop l (which must enclose g.Loop). This encodes the §2
// parameter rules; see the package comment for the calibration sources.
func (a *Analysis) Contribution(g *Group, l *sem.Loop) int {
	avs := a.Layout.AVS(g.Array)
	cvs := a.Layout.CVS(g.Array)
	seg, _ := a.Layout.Segment(g.Array)
	capAVS := func(v int) int {
		if v < 1 {
			v = 1
		}
		if v > avs {
			return avs
		}
		return v
	}
	lam := l.Depth

	switch g.Order {
	case sem.OrderNone:
		// Loop-invariant reference: only the referenced pages themselves.
		return capAVS(g.Keys)

	case sem.OrderVector:
		d := g.Deep
		if lam < d.Depth {
			// "The entire virtual space of a vector referenced at level
			// λ ≠ 1 contributes to all higher level localities."
			return avs
		}
		// At or inside the driving loop: once a new page is referenced the
		// old one is abandoned (paper's arrays A and B in Figure 5).
		return capAVS(g.Keys)

	case sem.OrderColumnWise:
		d1, d2 := g.Deep, g.Shallow // d1 traverses the column; d2 selects it
		switch {
		case lam > d1.Depth:
			// Strictly inside the traversal loop: subscripts fixed.
			return capAVS(g.Keys)
		case l == d1:
			// Traversing: Xr·Xc active pages (paper's X = Xr × Xc; array
			// DD contributes one page while loops 2 and 4 execute).
			return capAVS(g.Xr * g.Xc)
		case d2 == nil || (lam > d2.Depth && lam < d1.Depth):
			// The same columns are re-traversed on every iteration of l:
			// the whole columns belong to the locality ("the referenced
			// columns participate in the formation of the locality
			// comprised by the loop containing the array").
			return capAVS(g.Xc * cvs)
		case l == d2:
			// Each iteration selects fresh columns; only the active pages.
			return capAVS(g.Xr * g.Xc)
		default: // lam < d2.Depth
			// "The entire virtual space of a column-wise referenced array
			// contributes to localities formed at least two levels higher."
			return avs
		}

	case sem.OrderRowWise:
		d1, d2 := g.Deep, g.Shallow // d1 traverses the row; d2 selects it
		switch {
		case lam >= d1.Depth:
			// At or inside the traversal loop: pages are abandoned as the
			// scan proceeds — "loop 20 does not form a locality".
			return capAVS(g.Keys)
		case d2 == nil || lam >= d2.Depth:
			// At the row-selecting loop (or between): X = Xr × N — the CC
			// example contributes N pages to the loop-4 locality. In
			// column-major storage consecutive rows share pages, so the
			// row-span stays live across iterations of d2.
			return capAVS(g.Xr * seg.Cols)
		default: // lam < d2.Depth
			return avs
		}

	case sem.OrderDiagonal:
		d := g.Deep
		if lam < d.Depth {
			diag := seg.Rows
			if seg.Cols < diag {
				diag = seg.Cols
			}
			return capAVS(diag)
		}
		return capAVS(g.Keys)
	}
	return a.Params.MinResident
}

// LocalitySet is one array's membership in a loop-level locality, for the
// conceptual (Figure 1) view.
type LocalitySet struct {
	Array string
	Pages int
	// Desc is a human-readable description such as "columns (CVS=4)" or
	// "whole array (AVS=313)".
	Desc string
}

// LocalityNode is a node of the conceptual locality tree.
type LocalityNode struct {
	Loop     *sem.Loop
	Sets     []LocalitySet // empty => the loop forms no locality
	Size     int           // sum of member pages
	Children []*LocalityNode
}

// FormsLocality reports whether the loop binds any re-referenced page set.
func (n *LocalityNode) FormsLocality() bool { return len(n.Sets) > 0 }

// Tree builds the conceptual locality tree rooted at the program.
func (a *Analysis) Tree() *LocalityNode {
	var build func(l *sem.Loop) *LocalityNode
	build = func(l *sem.Loop) *LocalityNode {
		n := &LocalityNode{Loop: l}
		if l.Stmt != nil {
			n.Sets = a.conceptualSets(l)
			for _, s := range n.Sets {
				n.Size += s.Pages
			}
		}
		for _, c := range l.Children {
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	return build(a.Info.Root)
}

// conceptualSets lists the arrays whose pages are *re-referenced* across
// iterations of loop l — the Figure 1 notion of a locality member.
func (a *Analysis) conceptualSets(l *sem.Loop) []LocalitySet {
	byArray := map[string]LocalitySet{}
	for _, g := range a.Groups {
		if !l.Encloses(g.Loop) {
			continue
		}
		if set, ok := a.conceptualMember(g, l); ok {
			if prev, dup := byArray[g.Array]; !dup || set.Pages > prev.Pages {
				byArray[g.Array] = set
			}
		}
	}
	names := make([]string, 0, len(byArray))
	for n := range byArray {
		names = append(names, n)
	}
	sort.Strings(names)
	sets := make([]LocalitySet, len(names))
	for i, n := range names {
		sets[i] = byArray[n]
	}
	return sets
}

// conceptualMember decides whether group g makes array pages re-referenced
// at loop l, and with what footprint.
func (a *Analysis) conceptualMember(g *Group, l *sem.Loop) (LocalitySet, bool) {
	avs := a.Layout.AVS(g.Array)
	cvs := a.Layout.CVS(g.Array)
	seg, _ := a.Layout.Segment(g.Array)
	lam := l.Depth
	mk := func(pages int, desc string) (LocalitySet, bool) {
		if pages > avs {
			pages = avs
		}
		return LocalitySet{Array: g.Array, Pages: pages, Desc: desc}, true
	}

	switch g.Order {
	case sem.OrderVector:
		if lam < g.Deep.Depth {
			return mk(avs, fmt.Sprintf("whole vector (AVS=%d)", avs))
		}
	case sem.OrderColumnWise:
		d1, d2 := g.Deep, g.Shallow
		switch {
		case l == d1, d2 == nil && lam < d1.Depth, d2 != nil && lam > d2.Depth && lam < d1.Depth:
			return mk(g.Xc*cvs, fmt.Sprintf("%d column(s) (CVS=%d)", g.Xc, cvs))
		case d2 != nil && lam < d2.Depth:
			return mk(avs, fmt.Sprintf("whole array (AVS=%d)", avs))
		}
	case sem.OrderRowWise:
		d1, d2 := g.Deep, g.Shallow
		switch {
		case lam >= d1.Depth:
			// No locality at or inside the traversal loop.
		case d2 == nil || lam >= d2.Depth:
			return mk(g.Xr*seg.Cols, fmt.Sprintf("%d row span(s) (Xr·N=%d)", g.Xr, g.Xr*seg.Cols))
		default:
			return mk(avs, fmt.Sprintf("whole array (AVS=%d)", avs))
		}
	case sem.OrderDiagonal:
		if lam < g.Deep.Depth {
			diag := seg.Rows
			if seg.Cols < diag {
				diag = seg.Cols
			}
			return mk(diag, fmt.Sprintf("diagonal (%d pages)", diag))
		}
	}
	return LocalitySet{}, false
}

// RenderTree renders the conceptual locality tree as indented text, in the
// style of Figure 1's diagram.
func RenderTree(n *LocalityNode) string {
	var b strings.Builder
	var rec func(n *LocalityNode, depth int)
	rec = func(n *LocalityNode, depth int) {
		if n.Loop.Stmt != nil {
			pad := strings.Repeat("  ", depth)
			if n.FormsLocality() {
				parts := make([]string, len(n.Sets))
				for i, s := range n.Sets {
					parts[i] = fmt.Sprintf("%s:%d", s.Array, s.Pages)
				}
				fmt.Fprintf(&b, "%s%s locality {%s} size=%d pages\n", pad, n.Loop.Label(), strings.Join(parts, ", "), n.Size)
			} else {
				fmt.Fprintf(&b, "%s%s (no locality)\n", pad, n.Loop.Label())
			}
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(n, -1)
	return b.String()
}
