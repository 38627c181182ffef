// Package core is the front door of the CDMM library: it ties the
// compiler pipeline (parse → semantic analysis → address-space layout →
// locality analysis → directive insertion), the trace-generating
// interpreter, and the virtual memory simulator into one API.
//
// The typical flow mirrors the paper end to end:
//
//	p, err := core.CompileSource("MYPROG", src)   // compiler + directives
//	fmt.Println(p.RenderDirectives())              // Figure 5c-style view
//	fmt.Println(p.RenderLocalityTree())            // Figure 1-style view
//	res := p.RunCD(core.CDOptions{Level: 2})       // CD policy simulation
//	lru := p.Simulate(policy.NewLRU(10))           // baselines on the
//	ws := p.Simulate(policy.NewWS(500))            // same reference string
package core

import (
	"fmt"
	"sync"

	"cdmm/internal/directive"
	"cdmm/internal/fortran"
	"cdmm/internal/interp"
	"cdmm/internal/locality"
	"cdmm/internal/mem"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/sem"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// Options configures compilation.
type Options struct {
	// Geometry of the paged machine; zero value means the paper's
	// 256-byte pages of 4-byte reals.
	Geometry mem.Geometry
	// MinResident is the system-default minimum allocation (pages) used
	// when a loop forms no locality. Zero means the default of 2.
	MinResident int
	// MaxRefs caps trace generation; zero means the interpreter default.
	MaxRefs int
}

func (o Options) withDefaults() Options {
	if o.Geometry == (mem.Geometry{}) {
		o.Geometry = mem.DefaultGeometry
	}
	if o.MinResident == 0 {
		o.MinResident = locality.DefaultParams.MinResident
	}
	return o
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

	opts      Options
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
	opts = opts.withDefaults()
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
	analysis := locality.Analyze(info, layout, locality.Params{MinResident: opts.MinResident})
	plan := directive.Build(analysis)
	return &Program{
		Name:     name,
		AST:      ast,
		Info:     info,
		Layout:   layout,
		Analysis: analysis,
		Plan:     plan,
		opts:     opts,
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
			Layout:  p.Layout,
			Plan:    p.Plan,
			MaxRefs: p.opts.MaxRefs,
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

// Simulate replays the program's trace under any policy.
func (p *Program) Simulate(pol policy.Policy) (vmsim.Result, error) {
	return p.SimulateObserved(pol, nil)
}

// SimulateObserved replays the program's trace under any policy with an
// observer attached (nil observes nothing).
func (p *Program) SimulateObserved(pol policy.Policy, o *obs.Observer) (vmsim.Result, error) {
	tr, err := p.Trace()
	if err != nil {
		return vmsim.Result{}, err
	}
	return vmsim.RunObserved(tr, pol, o), nil
}

// CDOptions selects the directive set for a CD run.
type CDOptions struct {
	// Level is the honored directive stratum (1 = innermost loops only).
	// Zero means 1.
	Level int
	// Overrides gives per-loop stratum overrides keyed by loop key
	// (statement label or "L<line>").
	Overrides map[string]int
	// MinAlloc is the system-default minimum allocation; zero means 2.
	MinAlloc int
}

// RunCD simulates the program under the Compiler Directed policy.
func (p *Program) RunCD(opts CDOptions) (vmsim.Result, error) {
	return p.RunCDObserved(opts, nil)
}

// RunCDObserved is RunCD with an observer attached.
func (p *Program) RunCDObserved(opts CDOptions, o *obs.Observer) (vmsim.Result, error) {
	if opts.Level == 0 {
		opts.Level = 1
	}
	if opts.MinAlloc == 0 {
		opts.MinAlloc = 2
	}
	var sel policy.ArmSelector
	if len(opts.Overrides) > 0 {
		sel = policy.SelectLevels(opts.Level, opts.Overrides)
	} else {
		sel = policy.SelectLevel(opts.Level)
	}
	return p.SimulateObserved(policy.NewCD(sel, opts.MinAlloc), o)
}

// LRUSweep returns the one-pass all-allocations LRU curve of the trace.
func (p *Program) LRUSweep() (*sweep.LRUCurve, error) {
	tr, err := p.Trace()
	if err != nil {
		return nil, err
	}
	return sweep.NewLRU(tr)
}

// WSSweep returns the one-pass all-windows WS curve of the trace.
func (p *Program) WSSweep() (*sweep.WS, error) {
	tr, err := p.Trace()
	if err != nil {
		return nil, err
	}
	return sweep.NewWS(tr)
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
