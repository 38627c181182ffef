// Command cdmm is the command-line front end of the Compiler Directed
// Memory Management reproduction: it compiles FORTRAN-subset programs,
// shows their inserted memory directives and locality structure, runs the
// virtual memory simulator under LRU/FIFO/WS/OPT/CD, and regenerates the
// paper's Tables 1-4. Run `cdmm help` for every command and its flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"cdmm/internal/advisor"
	"cdmm/internal/bli"
	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/report"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// command declares one cdmm command. Dispatch, flag parsing and the
// usage text all read this one declaration.
type command struct {
	name string
	// operand is what the command takes before its flags, as usage
	// shows it: "<...>" when required, "[...]" when optional, "" for
	// nothing.
	operand  string
	synopsis string
	// flags declares the command's flags on fs and returns the command's
	// runner, which receives the operand ("" when absent) after fs has
	// parsed the rest of the arguments.
	flags func(fs *flag.FlagSet) func(operand string) error
}

const (
	progOperand = "<prog|file.f>"
	// anyOperand also takes a CDT3 trace file, recognized by its content
	// whatever its name (see withOperand).
	anyOperand = "<prog|file.f|trace-file>"
)

// commands lists every command once, in usage order. init fills it
// because serve's runner dispatches through it.
var commands []command

func init() {
	commands = []command{
		{"list", "", "list the built-in workload programs", noFlags(func(string) error {
			for _, p := range workloads.All() {
				sets := make([]string, len(p.Sets))
				for i, s := range p.Sets {
					sets[i] = s.Name
				}
				fmt.Printf("%-8s sets=%-32s %s\n", p.Name, strings.Join(sets, ","), p.Description)
			}
			return nil
		})},
		{"compile", progOperand, "compile and show the inserted memory directives", noFlags(withProgram(func(p *core.Program) error {
			fmt.Println(p.Summary())
			fmt.Print(p.RenderDirectives())
			return nil
		}))},
		{"locality", progOperand, "show the hierarchical locality structure", noFlags(withProgram(func(p *core.Program) error {
			fmt.Println(p.Summary())
			fmt.Print(p.RenderLocalityTree())
			return nil
		}))},
		{"trace", "[prog|file.f|trace-file]", "summarize the trace; -o writes it as CDT3, a trace file streamed (no operand: -stat for every workload)", traceFlags},
		{"bli", progOperand, "detect runtime localities (Madison-Batson BLIs)", noFlags(withProgram(cmdBLI))},
		{"sim", anyOperand, "simulate one policy over the trace, a trace file streamed in O(chunk) memory", simFlags},
		{"explain", progOperand, "attribute every page fault to its source loop, statement and directive", explainFlags},
		{"report", progOperand, "full markdown analysis report", reportFlags},
		{"advise", progOperand, "compiler advisories (loop interchange, big localities)", noFlags(withProgram(func(p *core.Program) error {
			fmt.Println(p.Summary())
			fmt.Print(advisor.Render(advisor.Analyze(p.Analysis)))
			return nil
		}))},
		{"family", "", "compare CD vs WS/DWS/SWS/VSWS/PFF on the suite", familyFlags},
		{"pagesize", "[prog]", "page-size sensitivity study (default HWSCRT)", pageSizeFlags},
		{"detune", "", "CD sensitivity to mis-estimated locality sizes", detuneFlags},
		{"sweep", anyOperand, "CD at every level vs tuned LRU and WS, or one policy's whole curve", sweepFlags},
		{"profile", progOperand, "fault-timeline and residency sparklines for CD vs tuned LRU and WS", profileFlags},
		{"chaos", "", "fault-injection matrix: CD with directive validation under seeded faults", chaosFlags},
		{"kernel", "", "sharded multi-tenant CD kernel over one overcommitted frame pool", kernelFlags},
		{"bench", "", "measure the simulation hot path (ns/ref, allocs/ref, fault anchors)", benchFlags},
		{"serve", "", "live telemetry daemon; runs the command after -- under it", serveFlags},
		{"table1", "", "regenerate the paper's Table 1", tablesFlags("table1")},
		{"table2", "", "regenerate the paper's Table 2", tablesFlags("table2")},
		{"table3", "", "regenerate the paper's Table 3", tablesFlags("table3")},
		{"table4", "", "regenerate the paper's Table 4", tablesFlags("table4")},
		{"tables", "", "regenerate all four tables", tablesFlags("tables")},
	}
}

// lookupCommand returns the command named name, or nil.
func lookupCommand(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

// newFlagSet is where cdmm makes its FlagSets: a bad flag is returned
// as an error, never exits the process, so `cdmm serve` outlives a
// failed nested command.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

// flagSet returns a FlagSet declaring c's flags, whose -h prints c's
// usage, and c's runner.
func (c *command) flagSet() (*flag.FlagSet, func(string) error) {
	fs := newFlagSet(c.name)
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "usage: cdmm %s [flags]\n  %s\n", strings.TrimSpace(c.name+" "+c.operand), c.synopsis)
		printFlags(w, fs, nil)
	}
	return fs, c.flags(fs)
}

// noFlags is the flags function of a command that declares none.
func noFlags(run func(operand string) error) func(*flag.FlagSet) func(string) error {
	return func(*flag.FlagSet) func(string) error { return run }
}

// withProgram adapts a runner over a compiled program to take the
// program's operand.
func withProgram(fn func(*core.Program) error) func(string) error {
	return func(name string) error {
		p, err := loadProgram(name)
		if err != nil {
			return err
		}
		return fn(p)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	switch {
	case name == "help" || name == "-h" || name == "--help":
		usage(os.Stdout)
		return
	case lookupCommand(name) == nil:
		fmt.Fprintf(os.Stderr, "cdmm: unknown command %q\n\n", name)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err := runCommand(name, args); err != nil {
		fmt.Fprintln(os.Stderr, "cdmm:", err)
		os.Exit(1)
	}
}

// runCommand dispatches one command: it takes the operand, parses the
// rest of args with the command's flags and runs it. It is the
// reentrant core of main: `cdmm serve -- <cmd> ...` routes the nested
// command through it with telemetry attached.
func runCommand(name string, args []string) error {
	c := lookupCommand(name)
	if c == nil {
		return fmt.Errorf("unknown command %q (cdmm help lists them)", name)
	}
	fs, run := c.flagSet()
	var operand string
	if c.operand != "" && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		operand, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: fs printed the command's usage
		}
		return err
	}
	if operand == "" && strings.HasPrefix(c.operand, "<") {
		return fmt.Errorf("%s: missing %s", c.name, c.operand)
	}
	// Only serve takes arguments after its flags: the command it runs.
	if fs.NArg() > 0 && c.name != "serve" {
		return fmt.Errorf("%s: unexpected argument %q", c.name, fs.Arg(0))
	}
	return run(operand)
}

// usage prints every command with its synopsis and flags, generated
// from the command table and the commands' FlagSets. The flags many
// commands share are printed once per group, naming the commands whose
// FlagSets declare them.
func usage(w io.Writer) {
	jfs, ofs := newFlagSet("j"), newFlagSet("obs")
	registerJFlag(jfs)
	registerObsFlags(ofs)
	type flagGroup struct {
		title string
		fs    *flag.FlagSet
		cmds  []string
	}
	groups := []*flagGroup{{title: "parallelism flag", fs: jfs}, {title: "observability flags", fs: ofs}}
	shared := map[string]bool{}
	for _, g := range groups {
		g.fs.VisitAll(func(f *flag.Flag) { shared[f.Name] = true })
	}

	fmt.Fprint(w, "cdmm - Compiler Directed Memory Management (Malkawi & Patel, SOSP 1985)\n\n"+
		"usage: cdmm <command> [operand] [flags]   (cdmm <command> -h: one command's usage)\n\n"+
		"commands:\n")
	for i := range commands {
		c := &commands[i]
		fs, _ := c.flagSet()
		fmt.Fprintf(w, "  %-9s%-26s %s\n", c.name, c.operand, c.synopsis)
		printFlags(w, fs, shared)
		for _, g := range groups {
			declared := true
			g.fs.VisitAll(func(f *flag.Flag) { declared = declared && fs.Lookup(f.Name) != nil })
			if declared {
				g.cmds = append(g.cmds, c.name)
			}
		}
	}
	for _, g := range groups {
		fmt.Fprintf(w, "\n%s (%s):\n", g.title, strings.Join(g.cmds, ", "))
		printFlags(w, g.fs, nil)
	}
}

// printFlags prints one line per flag of fs not in skip: its name, its
// argument, its usage and any non-zero default.
func printFlags(w io.Writer, fs *flag.FlagSet, skip map[string]bool) {
	fs.VisitAll(func(f *flag.Flag) {
		if skip[f.Name] {
			return
		}
		arg, text := flag.UnquoteUsage(f)
		switch {
		case f.DefValue == "" || f.DefValue == "0" || f.DefValue == "false" || f.DefValue == "0s":
		case arg == "string":
			text += fmt.Sprintf(" (default %q)", f.DefValue)
		default:
			text += fmt.Sprintf(" (default %s)", f.DefValue)
		}
		fmt.Fprintf(w, "      %-24s %s\n", strings.TrimSpace("-"+f.Name+" "+arg), text)
	})
}

// registerJFlag adds the shared -j parallelism flag: the bound on
// concurrent simulations in the run-plan engine.
func registerJFlag(fs *flag.FlagSet) *int {
	return intFlagMin(fs, "j", 0, 0, "run up to `N` simulations concurrently (0 = GOMAXPROCS); output is byte-identical at any -j")
}

// intFlagMin defines an int flag that rejects values below min when the
// command line is parsed: the flag package reports the flag and the
// value, instead of a constructor later clamping it.
func intFlagMin(fs *flag.FlagSet, name string, value, min int, usage string) *int {
	f := &minInt{v: value, min: min}
	fs.Var(f, name, usage)
	return &f.v
}

// minInt is intFlagMin's flag.Value.
type minInt struct{ v, min int }

func (f *minInt) String() string { return strconv.Itoa(f.v) }

func (f *minInt) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return errors.New("parse error")
	}
	if int(n) < f.min {
		return fmt.Errorf("must be at least %d", f.min)
	}
	f.v = int(n)
	return nil
}

// newEngine builds the command's engine from -j, observing its runs
// through o (nil observes nothing). When a telemetry server is live
// (cdmm serve, or the -serve flag) the engine also reports plan/run
// lifecycle into its tracker and logger.
func newEngine(j int, o *obs.Observer) *engine.Engine {
	e := engine.New(j).WithObserver(o)
	if serveProgress != nil {
		e.WithProgress(serveProgress)
	}
	if serveLogger != nil {
		e.WithLogger(serveLogger)
	}
	return e
}

// loadProgram resolves a name to a built-in workload or reads a source
// file from disk.
func loadProgram(name string) (*core.Program, error) {
	if w, err := workloads.Get(name); err == nil {
		return core.CompileSource(w.Name, w.Source)
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a workload (%s) nor a readable file: %v",
			name, strings.Join(workloads.Names(), ", "), err)
	}
	return core.CompileSource("", string(src))
}

// operand is a resolved <prog|file.f|trace-file> operand: a program
// compiled and traced in memory, or a CDT3 file streamed from disk in
// O(chunk) memory.
type operand struct {
	src  trace.Source
	prog *core.Program // nil for a trace file
	path string        // the trace file; "" for a program
}

// withOperand adapts a runner over a resolved operand to take the
// operand's name. A file whose content starts like a binary trace is
// opened as one, whatever its name; anything else is taken for a
// program. The trace file is closed when the runner returns.
func withOperand(fn func(*operand) error) func(string) error {
	return func(name string) error {
		if isTraceFile(name) {
			f, err := trace.OpenCDT3(name)
			if err != nil {
				return err
			}
			defer f.Close()
			return fn(&operand{src: f, path: name})
		}
		p, err := loadProgram(name)
		if err != nil {
			return err
		}
		tr, err := p.Trace()
		if err != nil {
			return err
		}
		return fn(&operand{src: tr, prog: p})
	}
}

// whole returns the operand's trace in memory, decoding a trace file in
// full.
func (in *operand) whole() (*trace.Trace, error) {
	if in.prog != nil {
		return in.prog.Trace()
	}
	f, err := os.Open(in.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

// program returns the operand's program, or an error saying that what
// needs one when the operand is a trace file, which holds the
// directives CD replays but not the program.
func (in *operand) program(what string) (*core.Program, error) {
	if in.prog == nil {
		return nil, fmt.Errorf("%s is a trace file: %s needs a program (a curve over a trace takes -policy lru, ws or fifo)", in.path, what)
	}
	return in.prog, nil
}

func cmdBLI(p *core.Program) error {
	tr, err := p.Trace()
	if err != nil {
		return err
	}
	fmt.Println(tr.Summary())
	refs := tr.Pages()
	ivs := bli.Detect(refs)
	fmt.Println("bounded locality intervals (Madison & Batson model):")
	fmt.Print(bli.Render(ivs, len(refs)))
	fmt.Printf("dominant runtime locality sizes (>=25%% coverage): %v\n",
		bli.DominantSizes(ivs, len(refs), 0.25))
	return nil
}

func reportFlags(fs *flag.FlagSet) func(string) error {
	j := registerJFlag(fs)
	return withProgram(func(p *core.Program) error {
		out, err := report.Generate(p, newEngine(*j, serveObserver))
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	})
}

func familyFlags(fs *flag.FlagSet) func(string) error {
	j := registerJFlag(fs)
	return func(string) error {
		rows, err := experiments.PolicyFamily(newEngine(*j, serveObserver), nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFamily(rows))
		return nil
	}
}

func detuneFlags(fs *flag.FlagSet) func(string) error {
	j := registerJFlag(fs)
	cell := fs.Bool("cellmode", false, "replay one full simulation per detune factor instead of the lockstep one-pass grid (the differential oracle)")
	return func(string) error {
		rows, err := experiments.DetuneStudy(newEngine(*j, serveObserver).WithCellMode(*cell), nil, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderDetune(rows))
		return nil
	}
}

func pageSizeFlags(fs *flag.FlagSet) func(string) error {
	j := registerJFlag(fs)
	return func(prog string) error {
		if prog == "" {
			prog = "HWSCRT"
		}
		rows, err := experiments.PageSizeSensitivity(newEngine(*j, serveObserver), prog, []int{128, 256, 512, 1024})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderPageSize(rows))
		return nil
	}
}

func simFlags(fs *flag.FlagSet) func(string) error {
	polName := fs.String("policy", "cd", "policy: cd, lru, fifo, ws, opt")
	level := intFlagMin(fs, "level", 1, 1, "CD directive-set stratum `N` (at least 1)")
	frames := intFlagMin(fs, "m", 8, 1, "fixed allocation of `N` frames for lru/fifo/opt")
	tau := intFlagMin(fs, "tau", 500, 1, "WS window of `N` references")
	memCeil := fs.Int("memceil", 0, "fail if peak RSS exceeds this many MiB (Linux VmHWM; 0 = no check)")
	of := registerObsFlags(fs)
	return withOperand(func(in *operand) error {
		return of.withObs(func() error {
			// Every policy replays the stream as it is: the directive-blind
			// ones ignore its ALLOCATE/LOCK/UNLOCK events.
			src := in.src
			var pol policy.Policy
			switch *polName {
			case "cd":
				pol = policy.NewCD(policy.SelectLevel(*level), 2)
			case "lru":
				pol = policy.NewLRU(*frames)
			case "fifo":
				pol = policy.NewFIFO(*frames)
			case "ws":
				pol = policy.NewWS(*tau)
			case "opt":
				// OPT needs the whole future reference string, so it cannot
				// stream: a trace file is decoded whole.
				tr, err := in.whole()
				if err != nil {
					return err
				}
				src, pol = tr, policy.NewOPT(tr.Pages(), *frames)
			default:
				return fmt.Errorf("unknown policy %q", *polName)
			}
			res, err := vmsim.RunSource(src, pol, of.observer)
			if err != nil {
				return err
			}
			if in.prog != nil {
				fmt.Println(in.prog.Summary())
			} else {
				fmt.Println(src.Meta().Summary())
			}
			fmt.Println(res)
			return checkMemCeil(*memCeil, "streamed replay is not O(chunk)")
		})
	})
}

func sweepFlags(fs *flag.FlagSet) func(string) error {
	polName := fs.String("policy", "", "curve policy: lru, ws, fifo, cd (empty: CD-levels summary)")
	grid := fs.String("grid", "", "comma-separated curve grid: allocations (lru/fifo), windows (ws), detune factors (cd)")
	level := intFlagMin(fs, "level", 1, 1, "CD directive-set stratum `N` (at least 1; policy cd)")
	asJSON := fs.Bool("json", false, "emit the curve as JSON")
	j := registerJFlag(fs)
	of := registerObsFlags(fs)
	return withOperand(func(in *operand) error {
		return of.withObs(func() error {
			eng := newEngine(*j, of.observer) // after activate: a -serve tracker attaches here
			if *polName == "" {
				p, err := in.program("the CD-levels summary")
				if err != nil {
					return err
				}
				return sweepSummary(eng, p)
			}
			return sweepCurve(os.Stdout, eng, in, *polName, *grid, *level, *asJSON)
		})
	})
}

// sweepSummary is the original sweep report: CD at every directive
// stratum versus the tuned LRU and WS minima, all read from eng (whose
// observer sees the CD runs).
func sweepSummary(eng *engine.Engine, p *core.Program) error {
	tr, err := p.Trace()
	if err != nil {
		return err
	}
	lru, err := eng.LRUSweep(nil, tr)
	if err != nil {
		return err
	}
	ws, err := eng.WSSweep(nil, tr)
	if err != nil {
		return err
	}
	mBest, lruST := lru.MinST()
	tauBest, wsRes, err := ws.MinST()
	if err != nil {
		return err
	}
	levels, err := report.CDLevels(eng, p, tr)
	if err != nil {
		return err
	}
	fmt.Printf("%s: V=%d R=%d\n", p.Name, p.V(), tr.Refs)
	fmt.Printf("best LRU: ST=%.4g at m=%d (PF=%d)\n", lruST, mBest, lru.Faults(mBest))
	fmt.Printf("best WS : ST=%.4g at tau=%d (PF=%d, MEM=%.2f)\n", wsRes.ST(), tauBest, wsRes.Faults, wsRes.MEM())
	for i, res := range levels {
		marker := ""
		if res.ST() < lruST && res.ST() < wsRes.ST() {
			marker = "   <- beats both"
		}
		fmt.Printf("CD level %d: PF=%-6d MEM=%-8.2f ST=%.4g%s\n", i+1, res.Faults, res.MEM(), res.ST(), marker)
	}
	return nil
}

// curvePoint is one (parameter, result) pair of a policy curve, the JSON
// row of `cdmm sweep -policy ... -json`.
type curvePoint struct {
	Policy string  `json:"policy"`
	Param  float64 `json:"param"`
	PF     int     `json:"pf"`
	MEM    float64 `json:"mem"`
	ST     float64 `json:"st"`
	MaxRes int     `json:"max_resident"`
}

// sweepCurve computes a whole policy curve from one traversal of the
// reference stream and renders it as a table or JSON. The CD detune
// grid is eng's memoized artifact.
func sweepCurve(w io.Writer, eng *engine.Engine, in *operand, polName, gridSpec string, level int, asJSON bool) error {
	var params []float64
	var results []vmsim.Result
	var err error
	switch polName {
	case "lru", "ws", "fifo":
		params, results, err = refCurve(in.src, polName, gridSpec)
	case "cd":
		params, results, err = cdCurve(eng, in, gridSpec, level)
	default:
		return fmt.Errorf("unknown sweep policy %q (want lru, ws, fifo or cd)", polName)
	}
	if err != nil {
		return err
	}
	var points []curvePoint
	for i, r := range results {
		points = append(points, curvePoint{
			Policy: r.Policy, Param: params[i], PF: r.Faults,
			MEM: r.MEM(), ST: r.ST(), MaxRes: r.MaxResident,
		})
	}

	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(points)
	}
	fmt.Fprintf(w, "%-16s %10s %8s %10s %14s %8s\n", "POLICY", "param", "PF", "MEM", "ST", "maxres")
	for _, pt := range points {
		fmt.Fprintf(w, "%-16s %10g %8d %10.2f %14.6g %8d\n",
			pt.Policy, pt.Param, pt.PF, pt.MEM, pt.ST, pt.MaxRes)
	}
	return nil
}

// cdCurve runs CD over the operand's program with every granted
// allocation detuned by each factor of the grid.
func cdCurve(eng *engine.Engine, in *operand, gridSpec string, level int) ([]float64, []vmsim.Result, error) {
	p, err := in.program("a CD curve")
	if err != nil {
		return nil, nil, err
	}
	tr, err := p.Trace()
	if err != nil {
		return nil, nil, err
	}
	factors, err := parseGrid(gridSpec, []float64{0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0}, gridFactor)
	if err != nil {
		return nil, nil, err
	}
	results, err := eng.CDDetune(nil, tr, workloads.Set{Level: level}, 2, factors, experiments.Detune)
	return factors, results, err
}

// refCurve computes the lru/ws/fifo curve over a reference stream: its
// grid, as curve parameters, and the result at each point.
func refCurve(src trace.Source, polName, gridSpec string) ([]float64, []vmsim.Result, error) {
	meta := src.Meta()
	var grid []int
	var results []vmsim.Result
	var err error
	switch polName {
	case "lru":
		var curve *sweep.LRUCurve
		if curve, err = sweep.NewLRU(src); err != nil {
			return nil, nil, err
		}
		grid, err = parseGrid(gridSpec, capLadder(curve.V), gridSize)
		for _, m := range grid {
			results = append(results, curve.Result(m))
		}
	case "ws":
		var ws *sweep.WS
		if ws, err = sweep.NewWS(src); err != nil {
			return nil, nil, err
		}
		if grid, err = parseGrid(gridSpec, vmsim.DefaultTaus(meta.Refs), gridSize); err == nil {
			results, err = ws.Curve(grid)
		}
	case "fifo":
		if grid, err = parseGrid(gridSpec, capLadder(meta.Distinct), gridSize); err == nil {
			results, err = sweep.FIFOCurve(src, grid)
		}
	}
	params := make([]float64, len(grid))
	for i, n := range grid {
		params[i] = float64(n)
	}
	return params, results, err
}

// capLadder is the default capacity grid: every allocation up to 16,
// then ~12% geometric steps to v.
func capLadder(v int) []int {
	var grid []int
	for m := 1; m <= v; {
		grid = append(grid, m)
		if m < 16 {
			m++
		} else if next := m + m/8; next > m {
			m = next
		} else {
			m++
		}
	}
	if len(grid) == 0 || grid[len(grid)-1] != v {
		grid = append(grid, v)
	}
	return grid
}

// parseGrid parses a comma-separated curve grid, or returns def when
// spec is empty. parse reads one point and rejects it out of range.
func parseGrid[T int | float64](spec string, def []T, parse func(string) (T, error)) ([]T, error) {
	if spec == "" {
		return def, nil
	}
	var grid []T
	for _, p := range strings.Split(spec, ",") {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad grid point %q: %w", p, err)
		}
		grid = append(grid, v)
	}
	return grid, nil
}

// gridSize reads an lru/fifo allocation or a ws window: at least 1.
func gridSize(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n < 1 {
		err = errors.New("must be at least 1")
	}
	return n, err
}

// gridFactor reads a CD detune factor: positive and finite.
func gridFactor(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && !(f > 0 && f <= math.MaxFloat64) {
		err = errors.New("must be positive and finite")
	}
	return f, err
}

// tablesFlags declares the flags of the table command that renders
// which ("table1".."table4" or "tables").
func tablesFlags(which string) func(*flag.FlagSet) func(string) error {
	return func(fs *flag.FlagSet) func(string) error {
		j := registerJFlag(fs)
		cell := fs.Bool("cellmode", false, "compute sweep artifacts by per-cell replay (one full simulation per curve point; the differential oracle)")
		of := registerObsFlags(fs)
		return func(string) error {
			return of.withObs(func() error {
				return runTablesTo(os.Stdout, which, newEngine(*j, of.observer).WithCellMode(*cell))
			})
		}
	}
}

func runTablesTo(w io.Writer, which string, eng *engine.Engine) error {
	show := func(name string, gen func() (string, error)) error {
		if which != "tables" && which != name {
			return nil
		}
		out, err := gen()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
		return nil
	}
	if err := show("table1", func() (string, error) {
		rows, err := experiments.Table1(eng)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable1(rows), nil
	}); err != nil {
		return err
	}
	if err := show("table2", func() (string, error) {
		rows, err := experiments.Table2(eng)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable2(rows), nil
	}); err != nil {
		return err
	}
	if err := show("table3", func() (string, error) {
		rows, err := experiments.Table3(eng)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable3(rows), nil
	}); err != nil {
		return err
	}
	return show("table4", func() (string, error) {
		rows, err := experiments.Table4(eng)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable4(rows), nil
	})
}

// checkMemCeil enforces a -memceil of ceil MiB (0: none): it prints the
// process's peak RSS and fails, saying why the ceiling holds, when the
// peak exceeds it. CI proves with it that a multi-GB CDT3 trace replays
// in O(chunk) memory and that kernel memory follows the tenant count.
func checkMemCeil(ceil int, why string) error {
	if ceil <= 0 {
		return nil
	}
	kb, err := peakRSSKiB()
	if err != nil {
		return fmt.Errorf("-memceil: %w", err)
	}
	fmt.Printf("peak RSS: %.1f MiB (ceiling %d MiB)\n", float64(kb)/1024, ceil)
	if kb > int64(ceil)<<10 {
		return fmt.Errorf("peak RSS %.1f MiB exceeds the %d MiB ceiling: %s", float64(kb)/1024, ceil, why)
	}
	return nil
}

// peakRSSKiB reads the process's peak resident set size from the Linux
// /proc interface.
func peakRSSKiB() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
		}
		return kb, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// isTraceFile reports whether path is a file whose content starts like
// a binary trace, whatever its name. Such a file is decoded as a trace,
// which rejects any format but CDT3 by its magic; any other operand is
// taken for a program.
func isTraceFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [3]byte
	_, err = io.ReadFull(f, magic[:])
	return err == nil && string(magic[:]) == "CDT"
}
