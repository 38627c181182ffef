// Package interp executes programs of the FORTRAN subset, producing the
// page-reference trace the virtual memory simulator replays. Array element
// accesses (reads and writes) each contribute one page reference; scalar
// and constant accesses do not (the paper assumes constants and
// instructions are permanently resident). When a directive plan is
// supplied, the inserted ALLOCATE/LOCK/UNLOCK directives execute at their
// insertion points and appear in the trace with pages resolved under the
// current loop indices. Every event carries its source site (trace.Site).
//
// Run lowers the analyzed program once into a tree of Go closures and then
// executes that tree. Lowering binds every name: scalars become dense
// slots, and each array reference holds its storage, page segment and
// trace site, each operator and intrinsic its implementation, each DO its
// directive lists. The hot loop therefore hashes no strings. A runtime
// error is raised only when the code that causes it executes: it panics
// with a private fault value that Run recovers into the returned error.
// A tree-walking interpreter in the package's tests is the differential
// oracle.
package interp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cdmm/internal/directive"
	"cdmm/internal/fortran"
	"cdmm/internal/mem"
	"cdmm/internal/sem"
	"cdmm/internal/trace"
)

// Config controls an interpreter run.
type Config struct {
	Layout *mem.Layout
	// Plan, when non-nil, causes directive events to be emitted.
	Plan *directive.Plan
	// MaxRefs caps the trace length as a runaway guard. 0 means the
	// default of 20 million references. It also bounds the run's work:
	// at most stepsPerRef×MaxRefs steps (executed statements plus DO
	// iterations), so a loop that touches no array still ends.
	MaxRefs int
}

const (
	defaultMaxRefs = 20_000_000
	// stepsPerRef scales MaxRefs into the step budget. The workload
	// suite executes under one step per reference, so 8 leaves ample
	// headroom for real programs.
	stepsPerRef = 8
)

// budget returns the reference and step caps for a configured MaxRefs.
func budget(maxRefs int) (refs, steps int) {
	if maxRefs == 0 {
		maxRefs = defaultMaxRefs
	}
	steps = math.MaxInt
	if maxRefs <= math.MaxInt/stepsPerRef {
		steps = stepsPerRef * maxRefs
	}
	return maxRefs, steps
}

func errRefs(prog string, n int) error {
	return fmt.Errorf("interp: %s exceeded %d references", prog, n)
}

func errSteps(prog string, n int) error {
	return fmt.Errorf("interp: %s exceeded %d steps", prog, n)
}

// Run executes the program and returns its trace.
func Run(info *sem.Info, cfg Config) (tr *trace.Trace, err error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("interp: Config.Layout is required")
	}
	m := &machine{tr: trace.New(info.Prog.Name), prog: info.Prog.Name}
	m.maxRefs, m.maxSteps = budget(cfg.MaxRefs)
	main := lower(info, cfg, m)
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(fault)
			if !ok {
				panic(r)
			}
			tr, err = nil, f.err
		}
	}()
	main()
	m.tr.Finish()
	return m.tr, nil
}

// fault carries a runtime error from the closure that raised it up to
// Run (or to a LOCK site's resolution), so closures return plain values.
type fault struct{ err error }

func raise(err error) { panic(fault{err}) }

// control is the statement-level control-flow outcome.
type control int

const (
	ctrlNext control = iota
	ctrlExit
	ctrlCycle
)

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Lowered forms: an expression yields a value, an index a rounded
// subscript or DO bound, a statement its control outcome.
type (
	expr  func() float64
	index func() int
	stmt  func() control
)

// machine is the run-time state the lowered closures share.
type machine struct {
	tr       *trace.Trace
	prog     string
	maxRefs  int
	steps    int
	maxSteps int
}

// tick counts one executed statement or DO iteration against the budget.
func (m *machine) tick() {
	m.steps++
	if m.steps > m.maxSteps {
		m.overrun()
	}
}

// overrun is tick's cold path, kept out of line so tick inlines.
//
//go:noinline
func (m *machine) overrun() { raise(errSteps(m.prog, m.maxSteps)) }

// exec runs a loop or branch body and propagates EXIT/CYCLE upward.
func (m *machine) exec(body []stmt) control {
	for _, s := range body {
		m.tick()
		if c := s(); c != ctrlNext {
			return c
		}
	}
	return ctrlNext
}

// ref emits one page reference attributed to site.
func (m *machine) ref(p mem.Page, site int32) {
	if m.tr.Refs >= m.maxRefs {
		raise(errRefs(m.prog, m.maxRefs))
	}
	m.tr.SetSite(site)
	m.tr.AddRef(p)
}

// lowerer turns the analyzed program into closures, binding each name
// once.
type lowerer struct {
	m      *machine
	layout *mem.Layout
	plan   *directive.Plan
	loopOf map[*fortran.DoStmt]*sem.Loop

	vals   []float64 // scalar slots
	set    []bool    // slot has been assigned
	slotOf map[string]int
	arrays map[string][]float64

	siteOf   map[*fortran.RefExpr]int32
	dirSites map[dirKey]*dirSite
}

// dirKey identifies a directive insertion point: all directives of one
// kind before (or after) one loop share a site.
type dirKey struct {
	loop *sem.Loop
	kind string
}

// dirSite is a directive insertion point's site, interned in the trace
// the first time a directive there executes.
type dirSite struct {
	site trace.Site
	id   int32
	done bool
}

func (d *dirSite) get(tr *trace.Trace) int32 {
	if !d.done {
		d.id, d.done = tr.AddSite(d.site), true
	}
	return d.id
}

// lower binds the program's names and returns its main body.
func lower(info *sem.Info, cfg Config, m *machine) func() {
	lw := &lowerer{
		m:        m,
		layout:   cfg.Layout,
		plan:     cfg.Plan,
		slotOf:   map[string]int{},
		arrays:   map[string][]float64{},
		siteOf:   map[*fortran.RefExpr]int32{},
		dirSites: map[dirKey]*dirSite{},
	}
	for _, a := range info.Prog.Arrays {
		lw.arrays[a.Name] = make([]float64, a.Elems())
	}
	if cfg.Plan != nil {
		lw.loopOf = map[*fortran.DoStmt]*sem.Loop{}
		for _, l := range info.Loops {
			lw.loopOf[l.Stmt] = l
		}
	}
	lw.allocSlots(info.Prog.Body)
	// Reference sites are interned up front in loop-tree preorder, so
	// their ids do not depend on execution order.
	var walk func(l *sem.Loop)
	walk = func(l *sem.Loop) {
		for _, ar := range l.Refs {
			lw.siteOf[ar.Ref] = m.tr.AddSite(trace.Site{
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
	walk(info.Root)

	prog := info.Prog.Body
	body := lw.body(prog)
	return func() {
		for i, s := range body {
			m.tick()
			if s() != ctrlNext {
				raise(fmt.Errorf("line %d: EXIT/CYCLE outside loop", prog[i].Pos()))
			}
		}
	}
}

// allocSlots gives every scalar name in the program a dense slot.
func (lw *lowerer) allocSlots(body []fortran.Stmt) {
	add := func(name string) {
		if _, ok := lw.slotOf[name]; !ok {
			lw.slotOf[name] = len(lw.slotOf)
		}
	}
	fortran.Walk(body, func(s fortran.Stmt) bool {
		if do, ok := s.(*fortran.DoStmt); ok {
			add(do.Var)
		}
		fortran.WalkExprs(s, func(e fortran.Expr) {
			if r, ok := e.(*fortran.RefExpr); ok && r.IsScalar() {
				add(r.Name)
			}
		})
		return true
	})
	lw.vals = make([]float64, len(lw.slotOf))
	lw.set = make([]bool, len(lw.slotOf))
}

// scalar returns the slot of a scalar name.
func (lw *lowerer) scalar(name string) (v *float64, set *bool) {
	i := lw.slotOf[name]
	return &lw.vals[i], &lw.set[i]
}

func (lw *lowerer) body(list []fortran.Stmt) []stmt {
	out := make([]stmt, len(list))
	for i, s := range list {
		out[i] = lw.stmt(s)
	}
	return out
}

func (lw *lowerer) stmt(s fortran.Stmt) stmt {
	m := lw.m
	switch st := s.(type) {
	case *fortran.AssignStmt:
		// FORTRAN evaluation order: RHS first, then the store.
		rhs := lw.expr(st.RHS)
		if st.LHS.IsScalar() {
			v, set := lw.scalar(st.LHS.Name)
			return func() control {
				*v, *set = rhs(), true
				return ctrlNext
			}
		}
		el := lw.element(st.LHS)
		return func() control {
			x := rhs()
			el.data[el.touch()] = x
			return ctrlNext
		}
	case *fortran.DoStmt:
		return lw.do(st)
	case *fortran.IfStmt:
		cond, then, els := lw.expr(st.Cond), lw.body(st.Then), lw.body(st.Else)
		return func() control {
			if cond() != 0 {
				return m.exec(then)
			}
			return m.exec(els)
		}
	case *fortran.ExitStmt:
		return func() control { return ctrlExit }
	case *fortran.CycleStmt:
		return func() control { return ctrlCycle }
	case *fortran.ContinueStmt:
		return func() control { return ctrlNext }
	}
	err := fmt.Errorf("line %d: unknown statement %T", s.Pos(), s)
	return func() control { raise(err); return ctrlNext }
}

func (lw *lowerer) do(st *fortran.DoStmt) stmt {
	m := lw.m
	var pre, post []func()
	if lw.plan != nil {
		pre, post = lw.directives(lw.loopOf[st])
	}
	from, to := lw.index(st.From), lw.index(st.To)
	var by index
	if st.Step != nil {
		by = lw.index(st.Step)
	}
	v, set := lw.scalar(st.Var)
	body := lw.body(st.Body)
	line := st.Line
	return func() control {
		// Directives textually precede the loop and execute every time
		// control reaches it.
		for _, d := range pre {
			d()
		}
		lo, hi, step := from(), to(), 1
		if by != nil {
			if step = by(); step == 0 {
				raise(fmt.Errorf("line %d: zero DO step", line))
			}
		}
		i := lo
		for ; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
			m.tick()
			*v, *set = float64(i), true
			if m.exec(body) == ctrlExit {
				break
			}
		}
		// FORTRAN semantics: after normal completion the DO variable holds
		// the first out-of-range value; after EXIT it keeps its current
		// value.
		*v, *set = float64(i), true
		for _, d := range post {
			d()
		}
		return ctrlNext
	}
}

// directives lowers the LOCK and ALLOCATE directives preceding a loop and
// the UNLOCKs following it.
func (lw *lowerer) directives(loop *sem.Loop) (pre, post []func()) {
	tr := lw.m.tr
	for _, d := range lw.plan.PreLoop[loop] {
		switch dir := d.(type) {
		case *directive.Lock:
			sites := make([]*element, len(dir.Refs))
			for i, ar := range dir.Refs {
				sites[i] = lw.element(ar.Ref)
			}
			at := lw.dirSite(loop, "LOCK")
			pre = append(pre, func() {
				var pages []mem.Page
				for _, el := range sites {
					if p, ok := el.lockPage(); ok && !slices.Contains(pages, p) {
						pages = append(pages, p)
					}
				}
				tr.SetSite(at.get(tr))
				tr.AddLock(dir.PJ, dir.ID, pages)
			})
		case *directive.Allocate:
			at := lw.dirSite(loop, "ALLOCATE")
			pre = append(pre, func() {
				tr.SetSite(at.get(tr))
				tr.AddAlloc(dir)
			})
		}
	}
	for _, d := range lw.plan.PostLoop[loop] {
		ul, ok := d.(*directive.Unlock)
		if !ok {
			continue
		}
		var pages []mem.Page
		var err error
		for _, name := range ul.Arrays {
			seg, ok := lw.layout.Segment(name)
			if !ok {
				err = fmt.Errorf("UNLOCK: unknown array %s", name)
				break
			}
			for p := seg.Base; p < seg.End(); p++ {
				pages = append(pages, p)
			}
		}
		at := lw.dirSite(loop, "UNLOCK")
		post = append(post, func() {
			if err != nil {
				raise(err)
			}
			tr.SetSite(at.get(tr))
			tr.AddUnlock(slices.Clone(pages))
		})
	}
	return pre, post
}

func (lw *lowerer) dirSite(loop *sem.Loop, kind string) *dirSite {
	k := dirKey{loop, kind}
	d, ok := lw.dirSites[k]
	if !ok {
		line := 0
		if loop.Stmt != nil {
			line = loop.Stmt.Line
		}
		d = &dirSite{site: trace.Site{Nest: loop.Path(), Line: line, Expr: kind}}
		lw.dirSites[k] = d
	}
	return d
}

// element is one lowered array reference.
type element struct {
	m        *machine
	row, col index // col is nil for vectors
	data     []float64
	seg      mem.Segment
	inLayout bool
	perPage  int
	shift    int // log2(perPage), or -1 when perPage is no power of two
	site     int32
	name     string
	line     int
}

func (lw *lowerer) element(r *fortran.RefExpr) *element {
	seg, ok := lw.layout.Segment(r.Name)
	perPage := lw.layout.Geo.ElemsPerPage()
	el := &element{
		m:        lw.m,
		row:      lw.index(r.Subs[0]),
		data:     lw.arrays[r.Name],
		seg:      seg,
		inLayout: ok,
		perPage:  perPage,
		shift:    -1,
		site:     trace.NoSite,
		name:     r.Name,
		line:     r.Line,
	}
	if perPage > 0 && perPage&(perPage-1) == 0 {
		el.shift = bits.TrailingZeros(uint(perPage))
	}
	if len(r.Subs) == 2 {
		el.col = lw.index(r.Subs[1])
	}
	if id, ok := lw.siteOf[r]; ok {
		el.site = id
	}
	return el
}

// touch emits the page reference for one access and returns the
// element's column-major linear index.
func (el *element) touch() int {
	row, col := el.row(), 1
	if el.col != nil {
		col = el.col()
	}
	i, ok := el.seg.Elem(row, col)
	if !ok {
		el.outOfBounds(row, col)
	}
	el.m.ref(el.page(i), el.site)
	return i
}

// page maps an in-bounds linear element index to its page.
func (el *element) page(i int) mem.Page {
	if el.shift >= 0 {
		return el.seg.Base + mem.Page(i>>el.shift)
	}
	return el.seg.Base + mem.Page(i/el.perPage)
}

// outOfBounds raises the error mem.Layout.PageOf reports for the access.
// An array missing from the layout has the zero segment, which holds no
// element.
func (el *element) outOfBounds(row, col int) {
	err := fmt.Errorf("mem: array %s not in layout", el.name)
	if el.inLayout {
		err = el.seg.BoundsError(row, col)
	}
	raise(fmt.Errorf("line %d: %v", el.line, err))
}

// lockPage resolves the page a LOCK pins for this reference site under
// the current indices. A site whose subscripts fail to evaluate (say, a
// scalar not yet assigned on the first execution) or fall out of range
// has nothing to lock yet; references its subscripts made stay emitted.
func (el *element) lockPage() (p mem.Page, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isFault := r.(fault); !isFault {
				panic(r)
			}
			p, ok = 0, false
		}
	}()
	row, col := el.row(), 1
	if el.col != nil {
		col = el.col()
	}
	i, ok := el.seg.Elem(row, col)
	if !ok {
		return 0, false
	}
	return el.page(i), true
}

// index lowers a subscript or DO bound: the expression rounded to the
// nearest integer.
func (lw *lowerer) index(e fortran.Expr) index {
	switch x := e.(type) {
	case *fortran.NumExpr:
		n := round(x.Value)
		return func() int { return n }
	case *fortran.RefExpr:
		if x.IsScalar() {
			v, set := lw.scalar(x.Name)
			line, name := x.Line, x.Name
			return func() int {
				if !*set {
					undefined(line, name)
				}
				return round(*v)
			}
		}
	}
	f := lw.expr(e)
	return func() int { return round(f()) }
}

// round is int(math.Round(v)), short-cut for the integral values loop
// indices almost always hold.
func round(v float64) int {
	if i := int(v); float64(i) == v {
		return i
	}
	return int(math.Round(v))
}

func undefined(line int, name string) {
	raise(fmt.Errorf("line %d: scalar %s used before assignment", line, name))
}

func (lw *lowerer) expr(e fortran.Expr) expr {
	switch x := e.(type) {
	case *fortran.NumExpr:
		c := x.Value
		return func() float64 { return c }
	case *fortran.RefExpr:
		if x.IsScalar() {
			v, set := lw.scalar(x.Name)
			line, name := x.Line, x.Name
			return func() float64 {
				if !*set {
					undefined(line, name)
				}
				return *v
			}
		}
		el := lw.element(x)
		return func() float64 { return el.data[el.touch()] }
	case *fortran.UnExpr:
		f := lw.expr(x.X)
		if x.Op == ".NOT." {
			return func() float64 { return boolVal(f() == 0) }
		}
		return func() float64 { return -f() }
	case *fortran.BinExpr:
		return lw.binary(x)
	case *fortran.CallExpr:
		return lw.call(x)
	}
	err := fmt.Errorf("unknown expression %T", e)
	return func() float64 { raise(err); return 0 }
}

// binary lowers a binary operation. The left operand is evaluated before
// the right (Go evaluates the calls in an expression left to right), and
// .AND./.OR. short-circuit, keeping references in FORTRAN textual order.
func (lw *lowerer) binary(x *fortran.BinExpr) expr {
	l, r := lw.expr(x.L), lw.expr(x.R)
	switch x.Op {
	case ".AND.":
		return func() float64 {
			if l() == 0 {
				return 0
			}
			return boolVal(r() != 0)
		}
	case ".OR.":
		return func() float64 {
			if l() != 0 {
				return 1
			}
			return boolVal(r() != 0)
		}
	case "+":
		return func() float64 { return l() + r() }
	case "-":
		return func() float64 { return l() - r() }
	case "*":
		return func() float64 { return l() * r() }
	case "/":
		return func() float64 {
			a, b := l(), r()
			if b == 0 {
				raise(fmt.Errorf("division by zero"))
			}
			return a / b
		}
	case "**":
		return func() float64 { return math.Pow(l(), r()) }
	case ".LT.":
		return func() float64 { return boolVal(l() < r()) }
	case ".LE.":
		return func() float64 { return boolVal(l() <= r()) }
	case ".GT.":
		return func() float64 { return boolVal(l() > r()) }
	case ".GE.":
		return func() float64 { return boolVal(l() >= r()) }
	case ".EQ.":
		return func() float64 { return boolVal(l() == r()) }
	case ".NE.":
		return func() float64 { return boolVal(l() != r()) }
	}
	err := fmt.Errorf("unknown operator %s", x.Op)
	return func() float64 { l(); r(); raise(err); return 0 }
}

// call lowers an intrinsic call. The arguments are evaluated left to
// right before an arity error is raised, as they would be before the
// function ran.
func (lw *lowerer) call(x *fortran.CallExpr) expr {
	args := make([]expr, len(x.Args))
	for i, a := range x.Args {
		args[i] = lw.expr(a)
	}
	var err error
	if f, ok := intrinsics1[x.Name]; ok {
		if len(args) == 1 {
			a := args[0]
			return func() float64 { return f(a()) }
		}
		err = fmt.Errorf("%s expects %d arguments, got %d", x.Name, 1, len(args))
	} else if f, ok := intrinsics2[x.Name]; ok {
		if len(args) == 2 {
			a, b := args[0], args[1]
			return func() float64 { return f(a(), b()) }
		}
		err = fmt.Errorf("%s expects %d arguments, got %d", x.Name, 2, len(args))
	} else if better, ok := extrema[x.Name]; ok {
		if len(args) >= 2 {
			// Folding as the arguments arrive compares them in the same
			// order as folding over their values afterwards.
			return func() float64 {
				m := args[0]()
				for _, a := range args[1:] {
					if v := a(); better(v, m) {
						m = v
					}
				}
				return m
			}
		}
		err = fmt.Errorf("%s needs at least 2 arguments", x.Name)
	} else {
		err = fmt.Errorf("unknown intrinsic %s", x.Name)
	}
	return func() float64 {
		for _, a := range args {
			a()
		}
		raise(err)
		return 0
	}
}

// The intrinsics, by arity. A domain error is raised when the call runs.
var (
	intrinsics1 = map[string]func(float64) float64{
		"ABS": math.Abs, "IABS": math.Abs,
		"SQRT": func(v float64) float64 {
			if v < 0 {
				raise(fmt.Errorf("SQRT of negative %g", v))
			}
			return math.Sqrt(v)
		},
		"EXP": math.Exp,
		"LOG": func(v float64) float64 {
			if v <= 0 {
				raise(fmt.Errorf("LOG of non-positive %g", v))
			}
			return math.Log(v)
		},
		"SIN": math.Sin, "COS": math.Cos, "ATAN": math.Atan,
		"FLOAT": identity, "REAL": identity, "DBLE": identity,
		"INT": math.Trunc,
	}
	intrinsics2 = map[string]func(a, b float64) float64{
		"MOD": func(a, b float64) float64 {
			if b == 0 {
				raise(fmt.Errorf("MOD by zero"))
			}
			return math.Mod(a, b)
		},
		"SIGN": func(a, b float64) float64 {
			if b < 0 {
				return -math.Abs(a)
			}
			return math.Abs(a)
		},
	}
	// extrema take two or more arguments; better(v, m) reports whether v
	// replaces the extremum m so far.
	extrema = map[string]func(v, m float64) bool{
		"MAX": greater, "AMAX1": greater, "MAX0": greater,
		"MIN": less, "AMIN1": less, "MIN0": less,
	}
)

func identity(v float64) float64 { return v }
func greater(v, m float64) bool  { return v > m }
func less(v, m float64) bool     { return v < m }
