// Package directive implements the paper's §3 memory directives and their
// automatic insertion:
//
//   - Procedure 1 (Figure 2): bottom-up priority-index assignment — the
//     innermost loop of every chain gets PI = 1 and merging paths take the
//     maximum, so PI(L) is the height of L in the loop forest.
//   - Algorithm 1 (Figure 3): a single top-down parse that inserts an
//     ALLOCATE((PI₁,X₁) else (PI₂,X₂) else …) directive before every loop,
//     carrying the (PI, X) pairs of all enclosing loops so outer requests
//     are retried at every inner level.
//   - Algorithm 2 (Figure 4): LOCK(PJ, Y₁, Y₂, …) insertion before each
//     inner loop for the arrays referenced between the enclosing loop's
//     header and that inner loop, plus a closing UNLOCK after the
//     outermost loop.
package directive

import (
	"fmt"
	"strings"

	"cdmm/internal/fortran"
	"cdmm/internal/locality"
	"cdmm/internal/sem"
)

// Arm is one (PI, X) alternative of an ALLOCATE directive.
type Arm struct {
	PI int // priority index; larger = outer loop = tried first
	X  int // requested pages (the virtual size of that level's locality)
}

// Allocate is an ALLOCATE((PI₁,X₁) else (PI₂,X₂) else …) directive. Arms
// are ordered as Algorithm 1 appends them: outermost enclosing loop first,
// the loop the directive precedes last. PI values decrease and X values
// are non-increasing along the list for well-formed nests.
type Allocate struct {
	Arms []Arm
	For  *sem.Loop // the loop this directive immediately precedes
}

// String renders the directive in the paper's notation.
func (a *Allocate) String() string {
	parts := make([]string, len(a.Arms))
	for i, arm := range a.Arms {
		parts[i] = fmt.Sprintf("(%d,%d)", arm.PI, arm.X)
	}
	return "ALLOCATE " + strings.Join(parts, " else ")
}

// Lock is a LOCK(PJ, Y…) directive. The particular pages Y are resolved at
// execution time from the reference sites: the directive names the arrays
// referenced in the enclosing loop's body segment before the next inner
// loop, and the interpreter locks the pages those references touch under
// the current loop indices.
type Lock struct {
	PJ     int
	Arrays []string        // in order of first appearance
	Refs   []*sem.ArrayRef // the reference sites whose pages get locked
	Site   *sem.Loop       // the scanning (outer) loop
	Before *sem.Loop       // the inner loop this LOCK immediately precedes
	ID     int             // unique site id; re-execution replaces this site's locks
}

// String renders the directive in the paper's notation.
func (l *Lock) String() string {
	return fmt.Sprintf("LOCK (%d,%s)", l.PJ, strings.Join(l.Arrays, ","))
}

// Unlock is an UNLOCK(Y…) directive releasing every page locked within the
// outermost loop it closes.
type Unlock struct {
	Arrays []string
	After  *sem.Loop // the outermost loop this UNLOCK follows
}

// String renders the directive in the paper's notation.
func (u *Unlock) String() string {
	return fmt.Sprintf("UNLOCK (%s)", strings.Join(u.Arrays, ","))
}

// Plan is the complete set of directives inserted into one program.
type Plan struct {
	Analysis *locality.Analysis
	// PI is Procedure 1's priority index per loop.
	PI map[*sem.Loop]int
	// MaxPI is Δ in the paper's terms: the largest priority index, carried
	// by the outermost loop of the deepest nest.
	MaxPI int
	// PreLoop lists the directives textually preceding each loop, in
	// execution order (LOCKs before the ALLOCATE, matching Figure 5c where
	// LOCK (3,A,B) precedes the ALLOCATE of loop 2).
	PreLoop map[*sem.Loop][]any
	// PostLoop lists directives following each outermost loop (UNLOCKs).
	PostLoop map[*sem.Loop][]any
	// Locks lists all LOCK directives in insertion order.
	Locks []*Lock
}

// Build runs Procedure 1, Algorithm 1 and Algorithm 2 over the analyzed
// program and returns the directive plan.
func Build(a *locality.Analysis) *Plan {
	p := &Plan{
		Analysis: a,
		PI:       AssignPriorities(a.Info),
		PreLoop:  map[*sem.Loop][]any{},
		PostLoop: map[*sem.Loop][]any{},
	}
	for _, pi := range p.PI {
		if pi > p.MaxPI {
			p.MaxPI = pi
		}
	}
	p.insertLocks(a.Info)   // LOCKs first so they precede ALLOCATEs (Figure 5c)
	p.insertAllocates(a)    // Algorithm 1
	p.insertUnlocks(a.Info) // closing UNLOCK per outermost loop
	return p
}

// AssignPriorities implements Procedure 1 (Figure 2): walk every chain
// bottom-up assigning PI = 1 to innermost loops and incrementing outward,
// taking the maximum where chains merge. The result equals the height of
// each loop in the loop forest.
func AssignPriorities(info *sem.Info) map[*sem.Loop]int {
	pi := map[*sem.Loop]int{}
	// Collect innermost loops, then walk outward from each, exactly as the
	// procedure is stated ("With every inner loop ... REPEAT Next Outer
	// Loop ... PI = maximum(PI+1, old PI)").
	var leaves []*sem.Loop
	for _, l := range info.Loops {
		if l.IsLeaf() {
			leaves = append(leaves, l)
		}
	}
	for _, leaf := range leaves {
		cur := 1
		if pi[leaf] < cur {
			pi[leaf] = cur
		}
		for l := leaf.Parent; l != nil && l.Stmt != nil; l = l.Parent {
			cur++ // "PI = maximum(PI+1, old PI)"
			if old := pi[l]; old > cur {
				cur = old
			}
			pi[l] = cur
		}
	}
	return pi
}

// insertAllocates implements Algorithm 1 (Figure 3): a top-down walk
// maintaining the (PI, X) argument list as a stack — push on loop entry,
// insert the directive before the loop, pop on exit.
func (p *Plan) insertAllocates(a *locality.Analysis) {
	var stack []Arm
	var walk func(l *sem.Loop)
	walk = func(l *sem.Loop) {
		for _, c := range l.Children {
			arm := Arm{PI: p.PI[c], X: a.ActiveSize(c)}
			stack = append(stack, arm)
			dir := &Allocate{Arms: append([]Arm(nil), stack...), For: c}
			p.PreLoop[c] = append(p.PreLoop[c], dir)
			walk(c)
			stack = stack[:len(stack)-1] // DELETE last elements on loop exit
		}
	}
	walk(a.Info.Root)
}

// insertLocks implements Algorithm 2 (Figure 4): inside every loop body,
// arrays referenced before the next inner loop get locked with PJ equal to
// the enclosing loop's priority index; an EXIT in the scanned segment
// suppresses the insertion.
func (p *Plan) insertLocks(info *sem.Info) {
	var walk func(l *sem.Loop)
	walk = func(l *sem.Loop) {
		if l.Stmt != nil {
			p.scanBody(l, l.Stmt.Body)
		}
		for _, c := range l.Children {
			walk(c)
		}
	}
	for _, top := range info.Root.Children {
		walk(top)
	}
}

// scanBody scans the direct statements of loop l, collecting array
// references between inner loops and attaching LOCK directives.
func (p *Plan) scanBody(l *sem.Loop, body []fortran.Stmt) {
	var arrays []string
	var refs []*sem.ArrayRef
	seen := map[string]bool{}
	exitFound := false

	collectStmt := func(s fortran.Stmt) {
		fortran.WalkExprs(s, func(e fortran.Expr) {
			r, ok := e.(*fortran.RefExpr)
			if !ok || r.IsScalar() {
				return
			}
			for _, ar := range l.Refs {
				if ar.Ref == r {
					if !seen[ar.Array.Name] {
						seen[ar.Array.Name] = true
						arrays = append(arrays, ar.Array.Name)
					}
					refs = append(refs, ar)
				}
			}
		})
	}

	var scan func(stmts []fortran.Stmt)
	scan = func(stmts []fortran.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *fortran.DoStmt:
				// Next inner loop discovered: insert the pending LOCK.
				inner := p.loopFor(st)
				if len(arrays) > 0 && !exitFound && inner != nil {
					lk := &Lock{
						PJ:     p.PI[l],
						Arrays: arrays,
						Refs:   refs,
						Site:   l,
						Before: inner,
						ID:     len(p.Locks),
					}
					p.PreLoop[inner] = append(p.PreLoop[inner], lk)
					p.Locks = append(p.Locks, lk)
				}
				arrays, refs, seen = nil, nil, map[string]bool{}
				exitFound = false
			case *fortran.ExitStmt:
				exitFound = true
			case *fortran.IfStmt:
				collectStmt(st)
				// EXITs nested in IF branches also suppress locking; array
				// refs inside branches still count as part of the segment.
				scanBranches(st, &exitFound)
				scan(st.Then)
				scan(st.Else)
			default:
				collectStmt(s)
			}
		}
	}
	scan(body)
}

// scanBranches marks exitFound if any EXIT occurs in the IF's branches
// outside nested loops.
func scanBranches(ifs *fortran.IfStmt, exitFound *bool) {
	var rec func(stmts []fortran.Stmt)
	rec = func(stmts []fortran.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *fortran.ExitStmt:
				*exitFound = true
			case *fortran.IfStmt:
				rec(st.Then)
				rec(st.Else)
			}
		}
	}
	rec(ifs.Then)
	rec(ifs.Else)
}

// loopFor finds the sem.Loop for a DoStmt.
func (p *Plan) loopFor(st *fortran.DoStmt) *sem.Loop {
	for _, l := range p.Analysis.Info.Loops {
		if l.Stmt == st {
			return l
		}
	}
	return nil
}

// insertUnlocks attaches an UNLOCK after each outermost loop releasing all
// arrays locked anywhere within it.
func (p *Plan) insertUnlocks(info *sem.Info) {
	for _, top := range info.Root.Children {
		var arrays []string
		seen := map[string]bool{}
		for _, lk := range p.Locks {
			if !top.Encloses(lk.Site) {
				continue
			}
			for _, a := range lk.Arrays {
				if !seen[a] {
					seen[a] = true
					arrays = append(arrays, a)
				}
			}
		}
		if len(arrays) > 0 {
			p.PostLoop[top] = append(p.PostLoop[top], &Unlock{Arrays: arrays, After: top})
		}
	}
}

// Render prints the program's loop skeleton with the inserted directives,
// in the style of Figure 5c.
func (p *Plan) Render() string {
	var b strings.Builder
	var rec func(l *sem.Loop, depth int)
	rec = func(l *sem.Loop, depth int) {
		var pad string
		if depth > 0 {
			pad = strings.Repeat("  ", depth)
		}
		if l.Stmt != nil {
			for _, d := range p.PreLoop[l] {
				fmt.Fprintf(&b, "%s%s\n", pad, d)
			}
			fmt.Fprintf(&b, "%s%s (PI=%d)\n", pad, l.Label(), p.PI[l])
		}
		for _, c := range l.Children {
			rec(c, depth+1)
		}
		if l.Stmt != nil {
			for _, d := range p.PostLoop[l] {
				fmt.Fprintf(&b, "%s%s\n", pad, d)
			}
		}
	}
	rec(p.Analysis.Info.Root, -1)
	return b.String()
}
