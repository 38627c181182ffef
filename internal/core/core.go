// Package core is the front door of the CDMM compiler: it runs the
// pipeline (parse → semantic analysis → address-space layout → locality
// analysis → directive insertion) and the trace-generating interpreter,
// and hands back one compiled Program. Simulation lives in vmsim and
// sweep, which replay a Program's trace.
//
// The typical flow mirrors the paper end to end:
//
//	p, err := core.CompileSource("MYPROG", src)    // compiler + directives
//	fmt.Println(p.RenderDirectives())               // Figure 5c-style view
//	fmt.Println(p.RenderLocalityTree())             // Figure 1-style view
//	tr, err := p.Trace()                            // the reference string
//	cd := vmsim.Run(tr, policy.NewCD(policy.SelectLevel(2), 2)) // CD policy
//	lru := vmsim.Run(tr, policy.NewLRU(10))         // baselines on the
//	ws := vmsim.Run(tr, policy.NewWS(500))          // same reference string
package core

import (
	"fmt"
	"sync"

	"cdmm/internal/directive"
	"cdmm/internal/fortran"
	"cdmm/internal/interp"
	"cdmm/internal/locality"
	"cdmm/internal/mem"
	"cdmm/internal/sem"
	"cdmm/internal/trace"
)

// Options configures compilation.
type Options struct {
	// Geometry of the paged machine; zero value means the paper's
	// 256-byte pages of 4-byte reals.
	Geometry mem.Geometry
}

// Program is a fully compiled program: source, analyses, directive plan,
// and (lazily) its execution trace.
type Program struct {
	Name     string
	AST      *fortran.Program
	Info     *sem.Info
	Layout   *mem.Layout
	Analysis *locality.Analysis
	Plan     *directive.Plan

	traceOnce sync.Once
	tr        *trace.Trace
	traceErr  error
}

// CompileSource compiles FORTRAN-subset source text with default options.
func CompileSource(name, src string) (*Program, error) {
	return CompileSourceOpts(name, src, Options{})
}

// CompileSourceOpts compiles with explicit options.
func CompileSourceOpts(name, src string, opts Options) (*Program, error) {
	if opts.Geometry == (mem.Geometry{}) {
		opts.Geometry = mem.DefaultGeometry
	}
	ast, err := fortran.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	if name == "" {
		name = ast.Name
	}
	info, err := sem.Analyze(ast)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	layout, err := mem.NewLayout(ast, opts.Geometry)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	analysis := locality.Analyze(info, layout)
	plan := directive.Build(analysis)
	return &Program{
		Name:     name,
		AST:      ast,
		Info:     info,
		Layout:   layout,
		Analysis: analysis,
		Plan:     plan,
	}, nil
}

// V returns the virtual size of the program's data space in pages.
func (p *Program) V() int { return p.Layout.TotalPages() }

// MaxPI returns Δ, the deepest priority index of the directive plan.
func (p *Program) MaxPI() int { return p.Plan.MaxPI }

// Trace executes the program and returns its page-reference trace with
// directive events. The trace is generated exactly once and cached;
// concurrent callers (parallel report sections, engine runs sharing one
// Program) block on the single generation instead of racing.
func (p *Program) Trace() (*trace.Trace, error) {
	p.traceOnce.Do(func() {
		tr, err := interp.Run(p.Info, interp.Config{
			Layout: p.Layout,
			Plan:   p.Plan,
			// The provenance side-band costs nothing on the simulation
			// fast path and lets explain/report attribute every fault.
			Sites: true,
		})
		if err != nil {
			p.traceErr = fmt.Errorf("core: %s: %w", p.Name, err)
			return
		}
		p.tr = tr
	})
	return p.tr, p.traceErr
}

// RenderDirectives renders the directive plan in Figure 5c style.
func (p *Program) RenderDirectives() string { return p.Plan.Render() }

// RenderLocalityTree renders the conceptual locality tree (Figure 1 style).
func (p *Program) RenderLocalityTree() string {
	return locality.RenderTree(p.Analysis.Tree())
}

// Summary returns a one-paragraph description of the compiled program.
func (p *Program) Summary() string {
	s := fmt.Sprintf("%s: %d arrays, V=%d pages, %d loops, Δ=%d",
		p.Name, len(p.AST.Arrays), p.V(), len(p.Info.Loops), p.MaxPI())
	if p.tr != nil {
		s += fmt.Sprintf(", R=%d references", p.tr.Refs)
	}
	return s
}
