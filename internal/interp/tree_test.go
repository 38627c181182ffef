package interp

import (
	"fmt"
	"math"

	"cdmm/internal/directive"
	"cdmm/internal/fortran"
	"cdmm/internal/mem"
	"cdmm/internal/sem"
	"cdmm/internal/trace"
)

// This file is the differential oracle: a tree-walking interpreter that
// resolves every name through maps on every access, so it is slow but
// follows the AST transparently. The tests require Run to match it byte
// for byte and error for error.

// runTree executes the program by walking its AST and returns its trace.
func runTree(info *sem.Info, cfg Config) (*trace.Trace, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("interp: Config.Layout is required")
	}
	maxRefs, maxSteps := budget(cfg.MaxRefs)
	ex := &executor{
		info:     info,
		layout:   cfg.Layout,
		plan:     cfg.Plan,
		tr:       trace.New(info.Prog.Name),
		maxRefs:  maxRefs,
		maxSteps: maxSteps,
		scalars:  map[string]float64{},
		arrays:   map[string][]float64{},
	}
	for _, a := range info.Prog.Arrays {
		ex.arrays[a.Name] = make([]float64, a.Elems())
	}
	if cfg.Plan != nil {
		ex.loopOf = map[*fortran.DoStmt]*sem.Loop{}
		for _, l := range info.Loops {
			ex.loopOf[l.Stmt] = l
		}
	}
	ex.buildSites()
	if err := ex.stmts(info.Prog.Body); err != nil {
		switch err {
		case errTooLong:
			return nil, errRefs(info.Prog.Name, maxRefs)
		case errTooManySteps:
			return nil, errSteps(info.Prog.Name, maxSteps)
		}
		return nil, err
	}
	return ex.tr, nil
}

var (
	errTooLong      = fmt.Errorf("trace too long")
	errTooManySteps = fmt.Errorf("too many steps")
)

type executor struct {
	info     *sem.Info
	layout   *mem.Layout
	plan     *directive.Plan
	tr       *trace.Trace
	maxRefs  int
	steps    int
	maxSteps int
	scalars  map[string]float64
	arrays   map[string][]float64
	loopOf   map[*fortran.DoStmt]*sem.Loop

	// siteOf maps every source array reference to its trace site;
	// dirSiteOf interns one site per (loop, directive kind) insertion
	// point.
	siteOf    map[*fortran.RefExpr]int32
	dirSiteOf map[dirSiteKey]int32
}

// dirSiteKey identifies a directive insertion point for site interning.
type dirSiteKey struct {
	loop *sem.Loop
	kind string
}

// buildSites registers a trace site for every array reference in the
// program up front, so site ids are stable in source preorder regardless
// of execution order.
func (ex *executor) buildSites() {
	ex.siteOf = map[*fortran.RefExpr]int32{}
	ex.dirSiteOf = map[dirSiteKey]int32{}
	var walk func(l *sem.Loop)
	walk = func(l *sem.Loop) {
		for _, ar := range l.Refs {
			ex.siteOf[ar.Ref] = ex.tr.AddSite(trace.Site{
				Nest:  l.Path(),
				Line:  ar.Ref.Line,
				Array: ar.Array.Name,
				Expr:  fortran.FormatExpr(ar.Ref),
			})
		}
		for _, c := range l.Children {
			walk(c)
		}
	}
	walk(ex.info.Root)
}

// directiveSite interns the site of a directive inserted at the given
// loop.
func (ex *executor) directiveSite(loop *sem.Loop, kind string) int32 {
	k := dirSiteKey{loop: loop, kind: kind}
	id, ok := ex.dirSiteOf[k]
	if !ok {
		line := 0
		if loop.Stmt != nil {
			line = loop.Stmt.Line
		}
		id = ex.tr.AddSite(trace.Site{Nest: loop.Path(), Line: line, Expr: kind})
		ex.dirSiteOf[k] = id
	}
	return id
}

// step counts one executed statement or DO iteration against the budget.
func (ex *executor) step() error {
	ex.steps++
	if ex.steps > ex.maxSteps {
		return errTooManySteps
	}
	return nil
}

func (ex *executor) stmts(list []fortran.Stmt) error {
	for _, s := range list {
		c, err := ex.stmt(s)
		if err != nil {
			return err
		}
		if c != ctrlNext {
			return fmt.Errorf("line %d: EXIT/CYCLE outside loop", s.Pos())
		}
	}
	return nil
}

// body executes a loop or branch body and propagates EXIT/CYCLE upward.
func (ex *executor) body(list []fortran.Stmt) (control, error) {
	for _, s := range list {
		c, err := ex.stmt(s)
		if err != nil {
			return ctrlNext, err
		}
		if c != ctrlNext {
			return c, nil
		}
	}
	return ctrlNext, nil
}

func (ex *executor) stmt(s fortran.Stmt) (control, error) {
	if err := ex.step(); err != nil {
		return ctrlNext, err
	}
	switch st := s.(type) {
	case *fortran.AssignStmt:
		return ctrlNext, ex.assign(st)
	case *fortran.DoStmt:
		return ctrlNext, ex.doLoop(st)
	case *fortran.IfStmt:
		cond, err := ex.eval(st.Cond)
		if err != nil {
			return ctrlNext, err
		}
		if cond != 0 {
			return ex.body(st.Then)
		}
		return ex.body(st.Else)
	case *fortran.ExitStmt:
		return ctrlExit, nil
	case *fortran.CycleStmt:
		return ctrlCycle, nil
	case *fortran.ContinueStmt:
		return ctrlNext, nil
	}
	return ctrlNext, fmt.Errorf("line %d: unknown statement %T", s.Pos(), s)
}

func (ex *executor) assign(st *fortran.AssignStmt) error {
	// FORTRAN evaluation order: RHS first, then the store.
	v, err := ex.eval(st.RHS)
	if err != nil {
		return err
	}
	return ex.store(st.LHS, v)
}

func (ex *executor) doLoop(st *fortran.DoStmt) error {
	// Directives textually precede the loop and execute every time control
	// reaches it.
	if ex.plan != nil {
		if err := ex.emitPreLoop(st); err != nil {
			return err
		}
	}
	from, err := ex.evalInt(st.From)
	if err != nil {
		return err
	}
	to, err := ex.evalInt(st.To)
	if err != nil {
		return err
	}
	step := 1
	if st.Step != nil {
		step, err = ex.evalInt(st.Step)
		if err != nil {
			return err
		}
		if step == 0 {
			return fmt.Errorf("line %d: zero DO step", st.Line)
		}
	}
	i := from
	for ; (step > 0 && i <= to) || (step < 0 && i >= to); i += step {
		if err := ex.step(); err != nil {
			return err
		}
		ex.scalars[st.Var] = float64(i)
		c, err := ex.body(st.Body)
		if err != nil {
			return err
		}
		if c == ctrlExit {
			break
		}
	}
	// FORTRAN semantics: after normal completion the DO variable holds the
	// first out-of-range value; after EXIT it keeps its current value.
	ex.scalars[st.Var] = float64(i)
	if ex.plan != nil {
		if err := ex.emitPostLoop(st); err != nil {
			return err
		}
	}
	return nil
}

// emitPreLoop executes the LOCK and ALLOCATE directives preceding a loop.
func (ex *executor) emitPreLoop(st *fortran.DoStmt) error {
	loop := ex.loopOf[st]
	for _, d := range ex.plan.PreLoop[loop] {
		switch dir := d.(type) {
		case *directive.Lock:
			pages, err := ex.resolveLockPages(dir)
			if err != nil {
				return err
			}
			ex.tr.SetSite(ex.directiveSite(loop, "LOCK"))
			ex.tr.AddLock(dir.PJ, dir.ID, pages)
		case *directive.Allocate:
			ex.tr.SetSite(ex.directiveSite(loop, "ALLOCATE"))
			ex.tr.AddAlloc(dir)
		}
	}
	return nil
}

// emitPostLoop executes the UNLOCK directives following a loop.
func (ex *executor) emitPostLoop(st *fortran.DoStmt) error {
	loop := ex.loopOf[st]
	for _, d := range ex.plan.PostLoop[loop] {
		if ul, ok := d.(*directive.Unlock); ok {
			var pages []mem.Page
			for _, name := range ul.Arrays {
				seg, ok := ex.layout.Segment(name)
				if !ok {
					return fmt.Errorf("UNLOCK: unknown array %s", name)
				}
				for p := seg.Base; p < seg.End(); p++ {
					pages = append(pages, p)
				}
			}
			ex.tr.SetSite(ex.directiveSite(loop, "UNLOCK"))
			ex.tr.AddUnlock(pages)
		}
	}
	return nil
}

// resolveLockPages evaluates the lock site's reference subscripts under
// the current indices to find the concrete pages to pin.
func (ex *executor) resolveLockPages(lk *directive.Lock) ([]mem.Page, error) {
	var pages []mem.Page
	seen := map[mem.Page]bool{}
	for _, ar := range lk.Refs {
		row, col, err := ex.subscripts(ar.Ref)
		if err != nil {
			// A subscript may use a variable not yet defined on the first
			// execution (e.g. locked before any assignment); skip the site.
			continue
		}
		p, err := ex.layout.PageOf(ar.Array.Name, row, col)
		if err != nil {
			continue // out-of-range current index: nothing to lock yet
		}
		if !seen[p] {
			seen[p] = true
			pages = append(pages, p)
		}
	}
	return pages, nil
}

// subscripts evaluates a reference's subscripts to (row, col).
func (ex *executor) subscripts(r *fortran.RefExpr) (row, col int, err error) {
	row, err = ex.evalInt(r.Subs[0])
	if err != nil {
		return 0, 0, err
	}
	col = 1
	if len(r.Subs) == 2 {
		col, err = ex.evalInt(r.Subs[1])
		if err != nil {
			return 0, 0, err
		}
	}
	return row, col, nil
}

// touch emits the page reference for an array element access and returns
// the element's linear index.
func (ex *executor) touch(r *fortran.RefExpr) (int, error) {
	row, col, err := ex.subscripts(r)
	if err != nil {
		return 0, err
	}
	p, err := ex.layout.PageOf(r.Name, row, col)
	if err != nil {
		return 0, fmt.Errorf("line %d: %v", r.Line, err)
	}
	if ex.tr.Refs >= ex.maxRefs {
		return 0, errTooLong
	}
	id, ok := ex.siteOf[r]
	if !ok {
		id = trace.NoSite
	}
	ex.tr.SetSite(id)
	ex.tr.AddRef(p)
	seg, _ := ex.layout.Segment(r.Name)
	return (col-1)*seg.Rows + (row - 1), nil
}

func (ex *executor) store(r *fortran.RefExpr, v float64) error {
	if r.IsScalar() {
		ex.scalars[r.Name] = v
		return nil
	}
	idx, err := ex.touch(r)
	if err != nil {
		return err
	}
	ex.arrays[r.Name][idx] = v
	return nil
}

func (ex *executor) evalInt(e fortran.Expr) (int, error) {
	v, err := ex.eval(e)
	if err != nil {
		return 0, err
	}
	return int(math.Round(v)), nil
}

func (ex *executor) eval(e fortran.Expr) (float64, error) {
	switch x := e.(type) {
	case *fortran.NumExpr:
		return x.Value, nil
	case *fortran.RefExpr:
		if x.IsScalar() {
			v, ok := ex.scalars[x.Name]
			if !ok {
				return 0, fmt.Errorf("line %d: scalar %s used before assignment", x.Line, x.Name)
			}
			return v, nil
		}
		idx, err := ex.touch(x)
		if err != nil {
			return 0, err
		}
		return ex.arrays[x.Name][idx], nil
	case *fortran.UnExpr:
		v, err := ex.eval(x.X)
		if err != nil {
			return 0, err
		}
		if x.Op == ".NOT." {
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return -v, nil
	case *fortran.BinExpr:
		return ex.evalBin(x)
	case *fortran.CallExpr:
		return ex.call(x)
	}
	return 0, fmt.Errorf("unknown expression %T", e)
}

func (ex *executor) evalBin(x *fortran.BinExpr) (float64, error) {
	l, err := ex.eval(x.L)
	if err != nil {
		return 0, err
	}
	// Short-circuit logical operators (both sides are cheap here but this
	// keeps directive side effects in FORTRAN textual order regardless).
	switch x.Op {
	case ".AND.":
		if l == 0 {
			return 0, nil
		}
		r, err := ex.eval(x.R)
		if err != nil {
			return 0, err
		}
		return boolVal(r != 0), nil
	case ".OR.":
		if l != 0 {
			return 1, nil
		}
		r, err := ex.eval(x.R)
		if err != nil {
			return 0, err
		}
		return boolVal(r != 0), nil
	}
	r, err := ex.eval(x.R)
	if err != nil {
		return 0, err
	}
	switch x.Op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return l / r, nil
	case "**":
		return math.Pow(l, r), nil
	case ".LT.":
		return boolVal(l < r), nil
	case ".LE.":
		return boolVal(l <= r), nil
	case ".GT.":
		return boolVal(l > r), nil
	case ".GE.":
		return boolVal(l >= r), nil
	case ".EQ.":
		return boolVal(l == r), nil
	case ".NE.":
		return boolVal(l != r), nil
	}
	return 0, fmt.Errorf("unknown operator %s", x.Op)
}

func (ex *executor) call(x *fortran.CallExpr) (float64, error) {
	args := make([]float64, len(x.Args))
	for i, a := range x.Args {
		v, err := ex.eval(a)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d arguments, got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "ABS", "IABS":
		if err := need(1); err != nil {
			return 0, err
		}
		return math.Abs(args[0]), nil
	case "SQRT":
		if err := need(1); err != nil {
			return 0, err
		}
		if args[0] < 0 {
			return 0, fmt.Errorf("SQRT of negative %g", args[0])
		}
		return math.Sqrt(args[0]), nil
	case "EXP":
		if err := need(1); err != nil {
			return 0, err
		}
		return math.Exp(args[0]), nil
	case "LOG":
		if err := need(1); err != nil {
			return 0, err
		}
		if args[0] <= 0 {
			return 0, fmt.Errorf("LOG of non-positive %g", args[0])
		}
		return math.Log(args[0]), nil
	case "SIN":
		if err := need(1); err != nil {
			return 0, err
		}
		return math.Sin(args[0]), nil
	case "COS":
		if err := need(1); err != nil {
			return 0, err
		}
		return math.Cos(args[0]), nil
	case "ATAN":
		if err := need(1); err != nil {
			return 0, err
		}
		return math.Atan(args[0]), nil
	case "MAX", "AMAX1", "MAX0":
		if len(args) < 2 {
			return 0, fmt.Errorf("%s needs at least 2 arguments", x.Name)
		}
		m := args[0]
		for _, v := range args[1:] {
			if v > m {
				m = v
			}
		}
		return m, nil
	case "MIN", "AMIN1", "MIN0":
		if len(args) < 2 {
			return 0, fmt.Errorf("%s needs at least 2 arguments", x.Name)
		}
		m := args[0]
		for _, v := range args[1:] {
			if v < m {
				m = v
			}
		}
		return m, nil
	case "MOD":
		if err := need(2); err != nil {
			return 0, err
		}
		if args[1] == 0 {
			return 0, fmt.Errorf("MOD by zero")
		}
		return math.Mod(args[0], args[1]), nil
	case "SIGN":
		if err := need(2); err != nil {
			return 0, err
		}
		if args[1] < 0 {
			return -math.Abs(args[0]), nil
		}
		return math.Abs(args[0]), nil
	case "FLOAT", "REAL", "DBLE":
		if err := need(1); err != nil {
			return 0, err
		}
		return args[0], nil
	case "INT":
		if err := need(1); err != nil {
			return 0, err
		}
		return math.Trunc(args[0]), nil
	}
	return 0, fmt.Errorf("unknown intrinsic %s", x.Name)
}
