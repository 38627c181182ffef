// Package sem performs semantic analysis over the FORTRAN subset:
// it checks declarations against uses, builds the loop-nest tree, and
// classifies every array reference by which enclosing loop drives each
// subscript. This classification is the raw material for the paper's §2
// locality parameters: Δ (nest depth), Λ (reference level), X (distinct
// index expressions) and Θ (order of reference).
package sem

import (
	"fmt"
	"strings"

	"cdmm/internal/fortran"
)

// Info is the result of analyzing a program.
type Info struct {
	Prog  *fortran.Program
	Root  *Loop   // synthetic depth-0 loop covering the whole program body
	Loops []*Loop // all real loops in preorder (Root excluded)
}

// Loop is a node in the loop-nest tree. The synthetic root has Stmt == nil
// and Depth == 0; real loops have Depth Λ ≥ 1 with Λ = 1 the outermost.
type Loop struct {
	ID       int // preorder index; 0 for the root
	Stmt     *fortran.DoStmt
	Parent   *Loop
	Children []*Loop
	Depth    int         // the paper's Λ
	Refs     []*ArrayRef // array refs directly in this loop's body (not in nested loops)
}

// Var returns the loop control variable, or "" for the root.
func (l *Loop) Var() string {
	if l.Stmt == nil {
		return ""
	}
	return l.Stmt.Var
}

// Key returns a stable identifier for the loop usable as a directive-set
// override key: the FORTRAN statement label when present, else "L<line>".
func (l *Loop) Key() string {
	if l.Stmt == nil {
		return ""
	}
	if l.Stmt.Label != "" {
		return l.Stmt.Label
	}
	return fmt.Sprintf("L%d", l.Stmt.Line)
}

// Label returns a display name for the loop.
func (l *Loop) Label() string {
	if l.Stmt == nil {
		return "<program>"
	}
	if l.Stmt.Label != "" {
		return "DO " + l.Stmt.Label
	}
	return fmt.Sprintf("DO(%s)@%d", l.Stmt.Var, l.Stmt.Line)
}

// Path returns the loop-nest chain from the outermost loop down to l,
// " / "-joined (e.g. "DO 40 / DO 30"); "" for the root. It is the nest
// identity the trace site side-band and fault-attribution ledger report.
func (l *Loop) Path() string {
	if l.Stmt == nil {
		return ""
	}
	var labels []string
	for n := l; n != nil && n.Stmt != nil; n = n.Parent {
		labels = append(labels, n.Label())
	}
	var b strings.Builder
	for i := len(labels) - 1; i >= 0; i-- {
		b.WriteString(labels[i])
		if i > 0 {
			b.WriteString(" / ")
		}
	}
	return b.String()
}

// Encloses reports whether l encloses other (or l == other).
func (l *Loop) Encloses(other *Loop) bool {
	for n := other; n != nil; n = n.Parent {
		if n == l {
			return true
		}
	}
	return false
}

// IsLeaf reports whether the loop contains no nested loops.
func (l *Loop) IsLeaf() bool { return len(l.Children) == 0 }

// MaxDepth returns Δ, the maximum nest depth within this loop's subtree
// measured from the outermost level (a single un-nested loop has Δ = 1).
func (l *Loop) MaxDepth() int {
	d := l.Depth
	for _, c := range l.Children {
		if m := c.MaxDepth(); m > d {
			d = m
		}
	}
	return d
}

// Height returns the paper's priority index quantity: 1 for leaves, and
// 1 + max(child height) otherwise (Procedure 1, Figure 2).
func (l *Loop) Height() int {
	h := 0
	for _, c := range l.Children {
		if ch := c.Height(); ch > h {
			h = ch
		}
	}
	return h + 1
}

// RefOrder is the paper's Θ, the order of reference of an array.
type RefOrder int

const (
	// OrderNone: no subscript varies with any enclosing loop (constant ref).
	OrderNone RefOrder = iota
	// OrderVector: one-dimensional array reference.
	OrderVector
	// OrderColumnWise: the row subscript varies with a deeper loop than the
	// column subscript — the reference walks down columns (fast stride 1 in
	// column-major storage).
	OrderColumnWise
	// OrderRowWise: the column subscript varies with a deeper loop — the
	// reference walks along rows (stride M).
	OrderRowWise
	// OrderDiagonal: both subscripts vary with the same loop.
	OrderDiagonal
)

// String returns the Θ name used in reports.
func (o RefOrder) String() string {
	switch o {
	case OrderVector:
		return "vector"
	case OrderColumnWise:
		return "column-wise"
	case OrderRowWise:
		return "row-wise"
	case OrderDiagonal:
		return "diagonal"
	default:
		return "invariant"
	}
}

// ArrayRef is one source-level array reference with its loop context.
type ArrayRef struct {
	Array *fortran.ArrayDecl
	Ref   *fortran.RefExpr
	Loop  *Loop // innermost enclosing loop (possibly the root)

	// RowDriver is the deepest enclosing loop whose control variable
	// appears in the first (row) subscript; nil if the subscript is
	// loop-invariant. ColDriver is the same for the second subscript
	// (nil for vectors).
	RowDriver *Loop
	ColDriver *Loop

	// Key is the canonical text of the subscript tuple, used to count the
	// paper's X parameter (number of distinct indexed variables).
	Key string
}

// Classify is the Θ (order-of-reference) rule. Given whether the array
// is a vector and the loops driving its row and column subscripts (nil
// when loop-invariant; colD is ignored for vectors), it returns Θ and
// the deep and shallow drivers: deep walks the reference's fast
// direction, shallow (nil unless the two subscripts vary with different
// loops) its slow one.
func Classify(vector bool, rowD, colD *Loop) (order RefOrder, deep, shallow *Loop) {
	if vector {
		if rowD == nil {
			return OrderNone, nil, nil
		}
		return OrderVector, rowD, nil
	}
	switch {
	case rowD == nil && colD == nil:
		return OrderNone, nil, nil
	case rowD != nil && colD == nil:
		return OrderColumnWise, rowD, nil // walks down a fixed column
	case rowD == nil && colD != nil:
		return OrderRowWise, colD, nil // walks along a fixed row
	case rowD == colD:
		return OrderDiagonal, rowD, nil
	case rowD.Depth > colD.Depth:
		return OrderColumnWise, rowD, colD
	default:
		return OrderRowWise, colD, rowD
	}
}

// Analyze builds the loop tree and reference classification for prog.
func Analyze(prog *fortran.Program) (*Info, error) {
	info := &Info{
		Prog: prog,
		Root: &Loop{ID: 0, Depth: 0},
	}
	a := &analyzer{info: info, prog: prog}
	if err := a.stmts(prog.Body, info.Root); err != nil {
		return nil, err
	}
	return info, nil
}

type analyzer struct {
	info   *Info
	prog   *fortran.Program
	nextID int
}

func (a *analyzer) stmts(stmts []fortran.Stmt, cur *Loop) error {
	for _, s := range stmts {
		switch st := s.(type) {
		case *fortran.DoStmt:
			a.nextID++
			loop := &Loop{
				ID:     a.nextID,
				Stmt:   st,
				Parent: cur,
				Depth:  cur.Depth + 1,
			}
			cur.Children = append(cur.Children, loop)
			a.info.Loops = append(a.info.Loops, loop)
			if !fortran.ImplicitInteger(st.Var) {
				return fmt.Errorf("line %d: loop variable %s must be integer (I-N)", st.Line, st.Var)
			}
			if a.prog.Array(st.Var) != nil {
				return fmt.Errorf("line %d: loop variable %s collides with an array name", st.Line, st.Var)
			}
			// Loop bounds may reference arrays too (rare but legal).
			if err := a.exprRefs(st.From, cur); err != nil {
				return err
			}
			if err := a.exprRefs(st.To, cur); err != nil {
				return err
			}
			if st.Step != nil {
				if err := a.exprRefs(st.Step, cur); err != nil {
					return err
				}
			}
			if err := a.stmts(st.Body, loop); err != nil {
				return err
			}
		case *fortran.AssignStmt:
			if err := a.exprRefs(st.LHS, cur); err != nil {
				return err
			}
			if err := a.exprRefs(st.RHS, cur); err != nil {
				return err
			}
		case *fortran.IfStmt:
			if err := a.exprRefs(st.Cond, cur); err != nil {
				return err
			}
			if err := a.stmts(st.Then, cur); err != nil {
				return err
			}
			if err := a.stmts(st.Else, cur); err != nil {
				return err
			}
		case *fortran.ExitStmt, *fortran.CycleStmt:
			if cur.Stmt == nil {
				return fmt.Errorf("line %d: EXIT/CYCLE outside of a DO loop", s.Pos())
			}
		}
	}
	return nil
}

// exprRefs records array references in e against loop cur, validating
// subscript arity, and recursing into subscripts.
func (a *analyzer) exprRefs(e fortran.Expr, cur *Loop) error {
	switch x := e.(type) {
	case *fortran.RefExpr:
		decl := a.prog.Array(x.Name)
		if len(x.Subs) > 0 {
			if decl == nil {
				return fmt.Errorf("line %d: %s referenced with subscripts but not declared", x.Line, x.Name)
			}
			if len(x.Subs) != len(decl.Dims) {
				return fmt.Errorf("line %d: %s has %d dimensions but %d subscripts", x.Line, x.Name, len(decl.Dims), len(x.Subs))
			}
			ref := &ArrayRef{
				Array: decl,
				Ref:   x,
				Loop:  cur,
				Key:   subscriptKey(x.Subs),
			}
			ref.RowDriver = deepestDriver(x.Subs[0], cur)
			if len(x.Subs) == 2 {
				ref.ColDriver = deepestDriver(x.Subs[1], cur)
			}
			cur.Refs = append(cur.Refs, ref)
			for _, sub := range x.Subs {
				if err := a.exprRefs(sub, cur); err != nil {
					return err
				}
			}
		} else if decl != nil {
			return fmt.Errorf("line %d: array %s referenced without subscripts", x.Line, x.Name)
		}
	case *fortran.CallExpr:
		for _, arg := range x.Args {
			if err := a.exprRefs(arg, cur); err != nil {
				return err
			}
		}
	case *fortran.BinExpr:
		if err := a.exprRefs(x.L, cur); err != nil {
			return err
		}
		return a.exprRefs(x.R, cur)
	case *fortran.UnExpr:
		return a.exprRefs(x.X, cur)
	}
	return nil
}

// deepestDriver finds the deepest loop (starting from cur and walking out)
// whose control variable occurs in the subscript expression.
func deepestDriver(sub fortran.Expr, cur *Loop) *Loop {
	vars := map[string]bool{}
	collectVars(sub, vars)
	for l := cur; l != nil && l.Stmt != nil; l = l.Parent {
		if vars[l.Var()] {
			return l
		}
	}
	return nil
}

func collectVars(e fortran.Expr, out map[string]bool) {
	switch x := e.(type) {
	case *fortran.RefExpr:
		if x.IsScalar() {
			out[x.Name] = true
		}
		for _, s := range x.Subs {
			collectVars(s, out)
		}
	case *fortran.CallExpr:
		for _, a := range x.Args {
			collectVars(a, out)
		}
	case *fortran.BinExpr:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case *fortran.UnExpr:
		collectVars(x.X, out)
	}
}

// subscriptKey canonicalizes a subscript tuple for distinct-index counting.
func subscriptKey(subs []fortran.Expr) string {
	parts := make([]string, len(subs))
	for i, s := range subs {
		parts[i] = fortran.FormatExpr(s)
	}
	return strings.Join(parts, ",")
}

// DistinctKeys returns the number of distinct subscript tuples among refs
// (the paper's X counting: "W = V(I) + V(I+1) + V(J)" has three).
func DistinctKeys(refs []*ArrayRef) int {
	seen := map[string]bool{}
	for _, r := range refs {
		seen[r.Key] = true
	}
	return len(seen)
}

// DistinctRowKeys counts distinct first-subscript expressions (the paper's
// Xr); DistinctColKeys counts distinct second-subscript expressions (Xc).
func DistinctRowKeys(refs []*ArrayRef) int {
	seen := map[string]bool{}
	for _, r := range refs {
		seen[fortran.FormatExpr(r.Ref.Subs[0])] = true
	}
	return len(seen)
}

// DistinctColKeys counts distinct second-subscript expressions (Xc).
// Vector references count as one column.
func DistinctColKeys(refs []*ArrayRef) int {
	seen := map[string]bool{}
	for _, r := range refs {
		if len(r.Ref.Subs) < 2 {
			seen[""] = true
			continue
		}
		seen[fortran.FormatExpr(r.Ref.Subs[1])] = true
	}
	return len(seen)
}
