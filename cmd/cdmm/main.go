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
	"os"
	"strconv"
	"strings"
	"time"

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

const progOperand = "<prog|file.f>"

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
		{"trace", progOperand, "execute and summarize the trace; -o saves it (CDT3, whatever the file name)", traceFlags},
		{"replay", "<trace-file>", "simulate a policy over a saved CDT3 trace, streamed in O(chunk) memory", replayFlags},
		{"convert", "[trace-file|prog]", "re-encode a CDT3 file or a program's trace as CDT3 (no operand: -stat for every workload)", convertFlags},
		{"bli", progOperand, "detect runtime localities (Madison-Batson BLIs)", noFlags(withProgram(cmdBLI))},
		{"sim", progOperand, "simulate one policy over the trace", simFlags},
		{"explain", progOperand, "attribute every page fault to its source loop, statement and directive", explainFlags},
		{"report", progOperand, "full markdown analysis report", reportFlags},
		{"advise", progOperand, "compiler advisories (loop interchange, big localities)", noFlags(withProgram(func(p *core.Program) error {
			fmt.Println(p.Summary())
			fmt.Print(advisor.Render(advisor.Analyze(p.Analysis, advisor.Options{})))
			return nil
		}))},
		{"family", "", "compare CD vs WS/DWS/SWS/VSWS/PFF on the suite", familyFlags},
		{"pagesize", "[prog]", "page-size sensitivity study (default HWSCRT)", pageSizeFlags},
		{"detune", "", "CD sensitivity to mis-estimated locality sizes", detuneFlags},
		{"sweep", "<prog|file.f|trace-file>", "CD at every level vs tuned LRU and WS, or one policy's whole curve", sweepFlags},
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

func cmdBLI(p *core.Program) error {
	tr, err := p.Trace()
	if err != nil {
		return err
	}
	fmt.Println(tr.Summary())
	refs := tr.Pages()
	ivs := bli.Detect(refs, bli.Config{MaxSize: p.V() + 4})
	fmt.Println("bounded locality intervals (Madison & Batson model):")
	fmt.Print(bli.Render(ivs, len(refs)))
	fmt.Printf("dominant runtime locality sizes (>=25%% coverage): %v\n",
		bli.DominantSizes(ivs, len(refs), 0.25))
	return nil
}

func reportFlags(fs *flag.FlagSet) func(string) error {
	j := registerJFlag(fs)
	return withProgram(func(p *core.Program) error {
		out, err := report.Generate(p, report.Options{Engine: newEngine(*j, serveObserver)})
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
	level := fs.Int("level", 1, "CD directive-set stratum")
	frames := intFlagMin(fs, "m", 8, 1, "fixed allocation of `N` frames for lru/fifo/opt")
	tau := intFlagMin(fs, "tau", 500, 1, "WS window of `N` references")
	of := registerObsFlags(fs)
	return withProgram(func(p *core.Program) error {
		tr, err := p.Trace()
		if err != nil {
			return err
		}
		return of.withObs(func() error {
			o := of.observer
			var res vmsim.Result
			switch *polName {
			case "cd":
				res = vmsim.RunObserved(tr, policy.NewCD(policy.SelectLevel(*level), 2), o)
			case "lru":
				res = vmsim.RunObserved(tr.RefsOnly(), policy.NewLRU(*frames), o)
			case "fifo":
				res = vmsim.RunObserved(tr.RefsOnly(), policy.NewFIFO(*frames), o)
			case "ws":
				res = vmsim.RunObserved(tr.RefsOnly(), policy.NewWS(*tau), o)
			case "opt":
				refs := tr.Pages()
				res = vmsim.RunObserved(tr.RefsOnly(), policy.NewOPT(refs, *frames), o)
			default:
				return fmt.Errorf("unknown policy %q", *polName)
			}
			fmt.Println(p.Summary())
			fmt.Println(res)
			return nil
		})
	})
}

func sweepFlags(fs *flag.FlagSet) func(string) error {
	polName := fs.String("policy", "", "curve policy: lru, ws, fifo, cd (empty: CD-levels summary)")
	grid := fs.String("grid", "", "comma-separated curve grid: allocations (lru/fifo), windows (ws), detune factors (cd)")
	level := fs.Int("level", 1, "CD directive-set stratum (policy cd)")
	asJSON := fs.Bool("json", false, "emit the curve as JSON")
	j := registerJFlag(fs)
	of := registerObsFlags(fs)
	return func(target string) error {
		return of.withObs(func() error {
			eng := newEngine(*j, of.observer) // after activate: a -serve tracker attaches here
			if *polName == "" {
				return sweepSummary(eng, target)
			}
			return sweepCurve(os.Stdout, eng, target, *polName, *grid, *level, *asJSON)
		})
	}
}

// sweepSummary is the original sweep report: CD at every directive
// stratum versus the tuned LRU and WS minima, all read from eng (whose
// observer sees the CD runs).
func sweepSummary(eng *engine.Engine, target string) error {
	p, err := sweepProgram(target, "the CD-levels summary")
	if err != nil {
		return err
	}
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

// sweepSource resolves the sweep target: a saved trace file, streamed
// block by block, or a workload/source program's trace.
func sweepSource(target string) (trace.Source, error) {
	if isTraceFile(target) {
		return trace.OpenCDT3(target)
	}
	p, err := loadProgram(target)
	if err != nil {
		return nil, err
	}
	return p.Trace()
}

// sweepProgram loads the program a CD sweep needs for what: a trace
// file carries the directives CD replays but not the program the sweep
// reports and selects directive sets from.
func sweepProgram(target, what string) (*core.Program, error) {
	if isTraceFile(target) {
		return nil, fmt.Errorf("%s is a trace file: %s needs a program (a curve over a trace takes -policy lru, ws or fifo)", target, what)
	}
	return loadProgram(target)
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
func sweepCurve(w io.Writer, eng *engine.Engine, target, polName, gridSpec string, level int, asJSON bool) error {
	var points []curvePoint
	switch polName {
	case "lru", "ws", "fifo":
		src, err := sweepSource(target)
		if err != nil {
			return err
		}
		points, err = refCurve(src, polName, gridSpec)
		if err != nil {
			return err
		}
	case "cd":
		// The grid detunes every granted allocation by each factor.
		p, err := sweepProgram(target, "a CD curve")
		if err != nil {
			return err
		}
		tr, err := p.Trace()
		if err != nil {
			return err
		}
		factors, err := parseFloatGrid(gridSpec, []float64{0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0})
		if err != nil {
			return err
		}
		results, err := eng.CDDetune(nil, tr, workloads.Set{Level: level}, 2, factors, experiments.Detune)
		if err != nil {
			return err
		}
		for i, r := range results {
			points = append(points, curvePoint{
				Policy: r.Policy, Param: factors[i], PF: r.Faults,
				MEM: r.MEM(), ST: r.ST(), MaxRes: r.MaxResident,
			})
		}
	default:
		return fmt.Errorf("unknown sweep policy %q (want lru, ws, fifo or cd)", polName)
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

// refCurve computes the lru/ws/fifo curve over a reference stream.
func refCurve(src trace.Source, polName, gridSpec string) ([]curvePoint, error) {
	meta := src.Meta()
	var points []curvePoint
	switch polName {
	case "lru":
		curve, err := sweep.NewLRU(src)
		if err != nil {
			return nil, err
		}
		grid, err := parseIntGrid(gridSpec, capLadder(curve.V))
		if err != nil {
			return nil, err
		}
		for _, m := range grid {
			r := curve.Result(m)
			points = append(points, curvePoint{
				Policy: r.Policy, Param: float64(m), PF: r.Faults,
				MEM: r.MEM(), ST: r.ST(), MaxRes: r.MaxResident,
			})
		}
	case "ws":
		ws, err := sweep.NewWS(src)
		if err != nil {
			return nil, err
		}
		grid, err := parseIntGrid(gridSpec, vmsim.DefaultTaus(meta.Refs))
		if err != nil {
			return nil, err
		}
		results, err := ws.Curve(grid)
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			points = append(points, curvePoint{
				Policy: r.Policy, Param: float64(grid[i]), PF: r.Faults,
				MEM: r.MEM(), ST: r.ST(), MaxRes: r.MaxResident,
			})
		}
	case "fifo":
		grid, err := parseIntGrid(gridSpec, capLadder(meta.Distinct))
		if err != nil {
			return nil, err
		}
		results, err := sweep.FIFOCurve(src, grid)
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			points = append(points, curvePoint{
				Policy: r.Policy, Param: float64(grid[i]), PF: r.Faults,
				MEM: r.MEM(), ST: r.ST(), MaxRes: r.MaxResident,
			})
		}
	}
	return points, nil
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

// parseIntGrid parses a comma-separated integer grid, or returns def
// when the spec is empty.
func parseIntGrid(spec string, def []int) ([]int, error) {
	if spec == "" {
		return def, nil
	}
	parts := strings.Split(spec, ",")
	grid := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad grid point %q: %w", p, err)
		}
		grid = append(grid, n)
	}
	return grid, nil
}

// parseFloatGrid parses a comma-separated float grid, or returns def
// when the spec is empty.
func parseFloatGrid(spec string, def []float64) ([]float64, error) {
	if spec == "" {
		return def, nil
	}
	parts := strings.Split(spec, ",")
	grid := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad grid point %q: %w", p, err)
		}
		grid = append(grid, f)
	}
	return grid, nil
}

// tablesFlags declares the flags of the table command that renders
// which ("table1".."table4" or "tables").
func tablesFlags(which string) func(*flag.FlagSet) func(string) error {
	return func(fs *flag.FlagSet) func(string) error {
		j := registerJFlag(fs)
		cell := fs.Bool("cellmode", false, "compute sweep artifacts by per-cell replay (one full simulation per curve point; the differential oracle)")
		timing := fs.Bool("timing", false, "after rendering, recompute the tables in the other sweep mode and print the wall-clock comparison")
		of := registerObsFlags(fs)
		return func(string) error {
			finish, err := of.activate()
			if err != nil {
				return err
			}
			if *timing {
				// workloads.Compile compiles each program once per process, so
				// whichever leg runs first would otherwise pay FORTRAN
				// compilation and trace generation for both. Warm it up front so
				// the timed legs compare sweep work only.
				if err := warmTableCompiles(which); err != nil {
					return err
				}
			}
			start := time.Now()
			err = runTablesTo(os.Stdout, which, newEngine(*j, of.observer).WithCellMode(*cell))
			if err == nil && *timing {
				// The other mode renders to the bit bucket on a fresh, unobserved
				// engine: same compiled programs, but every simulation and sweep
				// redone.
				thisDur := time.Since(start)
				otherStart := time.Now()
				err = runTablesTo(io.Discard, which, engine.New(*j).WithCellMode(!*cell))
				if err == nil {
					fmt.Println(renderTimingLine(*cell, thisDur, time.Since(otherStart)))
				}
			}
			if ferr := finish(); err == nil {
				err = ferr
			}
			return err
		}
	}
}

// warmTableCompiles compiles every program the selected table draws on,
// populating the shared workloads cache before `-timing` starts its
// clocks.
func warmTableCompiles(which string) error {
	var vs []experiments.Variant
	switch which {
	case "table1":
		vs = experiments.Table1Variants
	case "table2":
		vs = experiments.Table2Variants
	case "table3", "table4":
		vs = experiments.Table34Variants
	default: // tables: Table34Variants covers every program in 1 and 2
		vs = experiments.Table34Variants
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Program] {
			continue
		}
		seen[v.Program] = true
		if _, err := workloads.Compile(v.Program); err != nil {
			return err
		}
	}
	return nil
}

// renderTimingLine formats the curve-vs-cell wall-clock comparison for
// `cdmm table* -timing`. thisDur is the rendered leg's duration in the
// requested mode (cell when cellMode, else curve), otherDur the silent
// recomputation in the opposite mode.
func renderTimingLine(cellMode bool, thisDur, otherDur time.Duration) string {
	curve, cell := thisDur, otherDur
	if cellMode {
		curve, cell = otherDur, thisDur
	}
	speedup := 0.0
	if curve > 0 {
		speedup = float64(cell) / float64(curve)
	}
	return fmt.Sprintf("sweep timing: curve %s vs per-cell %s (%.1fx)",
		curve.Round(time.Millisecond), cell.Round(time.Millisecond), speedup)
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

func traceFlags(fs *flag.FlagSet) func(string) error {
	out := fs.String("o", "", "write the trace to this file (CDT3)")
	chunk := fs.Int("chunk", trace.DefaultChunkEvents, "CDT3 chunk size in events")
	repeat := fs.Int("repeat", 1, "replicate the reference string N times in the output (drops directives; for big-trace streaming tests)")
	return withProgram(func(p *core.Program) error {
		if *repeat > 1 && *out == "" {
			return fmt.Errorf("-repeat needs an -o output")
		}
		tr, err := p.Trace()
		if err != nil {
			return err
		}
		fmt.Println(tr.Summary())
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			var src trace.Source = tr
			if *repeat > 1 {
				src = trace.Repeat(tr, *repeat)
			}
			n, err := trace.WriteCDT3(f, src, *chunk)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Printf("wrote %d bytes to %s\n", n, *out)
		}
		return nil
	})
}

func replayFlags(fs *flag.FlagSet) func(string) error {
	polName := fs.String("policy", "cd", "policy: cd, lru, fifo, ws, opt")
	level := fs.Int("level", 1, "CD directive-set stratum")
	frames := intFlagMin(fs, "m", 8, 1, "fixed allocation of `N` frames for lru/fifo/opt")
	tau := intFlagMin(fs, "tau", 500, 1, "WS window of `N` references")
	memCeil := fs.Int("memceil", 0, "fail if peak RSS exceeds this many MiB (Linux VmHWM; 0 = no check)")
	of := registerObsFlags(fs)
	return func(path string) error {
		// The trace streams block by block in O(chunk) memory.
		src, err := trace.OpenCDT3(path)
		if err != nil {
			return err
		}
		defer src.Close()
		return of.withObs(func() error {
			o := of.observer
			meta := src.Meta()
			var res vmsim.Result
			var err error
			switch *polName {
			case "cd":
				res, err = vmsim.RunSource(src, policy.NewCD(policy.SelectLevel(*level), 2), o)
			case "lru":
				// LRU/FIFO/WS ignore directives, so streaming the full event
				// stream gives the same Result as the directive-free view.
				res, err = vmsim.RunSource(src, policy.NewLRU(*frames), o)
			case "fifo":
				res, err = vmsim.RunSource(src, policy.NewFIFO(*frames), o)
			case "ws":
				res, err = vmsim.RunSource(src, policy.NewWS(*tau), o)
			case "opt":
				// OPT needs the whole future reference string, so it cannot
				// stream; decode the whole file.
				tr, rerr := readTraceFile(path)
				if rerr != nil {
					return rerr
				}
				res = vmsim.RunObserved(tr.RefsOnly(), policy.NewOPT(tr.Pages(), *frames), o)
			default:
				return fmt.Errorf("unknown policy %q", *polName)
			}
			if err != nil {
				return err
			}
			fmt.Printf("%s: R=%d references, V=%d distinct pages, %d directive events\n",
				meta.Name, meta.Refs, meta.Distinct, meta.Events-meta.Refs)
			fmt.Println(res)
			if *memCeil > 0 {
				kb, err := peakRSSKiB()
				if err != nil {
					return fmt.Errorf("-memceil: %w", err)
				}
				fmt.Printf("peak RSS: %.1f MiB (ceiling %d MiB)\n", float64(kb)/1024, *memCeil)
				if kb > int64(*memCeil)<<10 {
					return fmt.Errorf("peak RSS %.1f MiB exceeds the %d MiB ceiling: streamed replay is not O(chunk)",
						float64(kb)/1024, *memCeil)
				}
			}
			return nil
		})
	}
}

// peakRSSKiB reads the process's peak resident set size from the Linux
// /proc interface. The streamed-replay CI job uses it to prove a
// multi-GB CDT3 trace replays in O(chunk) memory.
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

// readTraceFile decodes a whole trace file into memory.
func readTraceFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
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
