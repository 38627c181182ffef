// Command cdmm is the command-line front end of the Compiler Directed
// Memory Management reproduction: it compiles FORTRAN-subset programs,
// shows their inserted memory directives and locality structure, runs the
// virtual memory simulator under LRU/FIFO/WS/OPT/CD, and regenerates the
// paper's Tables 1-4.
//
// Usage:
//
//	cdmm list                         # the built-in workload suite
//	cdmm compile  <prog|file.f>       # show inserted directives (Fig. 5c)
//	cdmm locality <prog|file.f>       # conceptual locality tree (Fig. 1)
//	cdmm trace    <prog|file.f>       # trace summary
//	cdmm sim      <prog|file.f> -policy cd -level 2 [-m N] [-tau N]
//	cdmm sweep    <prog|file.f>       # CD levels vs best LRU / best WS
//	cdmm table1 | table2 | table3 | table4 | tables
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

// registerJFlag adds the shared -j parallelism flag: the bound on
// concurrent simulations in the run-plan engine.
func registerJFlag(fs *flag.FlagSet) *int {
	return intFlagMin(fs, "j", 0, 0, "max concurrent simulations (0 = GOMAXPROCS)")
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if cmd == "help" || cmd == "-h" || cmd == "--help" {
		usage()
		return
	}
	if err := runCommand(cmd, args); err != nil {
		fmt.Fprintln(os.Stderr, "cdmm:", err)
		os.Exit(1)
	}
}

// runCommand dispatches one subcommand. It is the reentrant core of
// main: `cdmm serve -- <cmd> ...` routes the nested command through it
// with telemetry attached.
func runCommand(cmd string, args []string) error {
	var err error
	switch cmd {
	case "list":
		err = cmdList()
	case "compile":
		err = withProgram(args, func(p *core.Program, _ []string) error {
			fmt.Println(p.Summary())
			fmt.Print(p.RenderDirectives())
			return nil
		})
	case "locality":
		err = withProgram(args, func(p *core.Program, _ []string) error {
			fmt.Println(p.Summary())
			fmt.Print(p.RenderLocalityTree())
			return nil
		})
	case "trace":
		err = cmdTrace(args)
	case "replay":
		err = cmdReplay(args)
	case "convert":
		err = cmdConvert(args)
	case "bli":
		err = withProgram(args, func(p *core.Program, _ []string) error {
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
		})
	case "report":
		err = withProgram(args, func(p *core.Program, rest []string) error {
			fs := flag.NewFlagSet("report", flag.ContinueOnError)
			j := registerJFlag(fs)
			if perr := fs.Parse(rest); perr != nil {
				return perr
			}
			out, rerr := report.Generate(p, report.Options{Engine: newEngine(*j, serveObserver)})
			if rerr != nil {
				return rerr
			}
			fmt.Print(out)
			return nil
		})
	case "advise":
		err = withProgram(args, func(p *core.Program, _ []string) error {
			fmt.Println(p.Summary())
			fmt.Print(advisor.Render(advisor.Analyze(p.Analysis, advisor.Options{})))
			return nil
		})
	case "family":
		err = cmdFamily(args)
	case "detune":
		err = cmdDetune(args)
	case "pagesize":
		err = cmdPageSize(args)
	case "explain":
		err = cmdExplain(args)
	case "sim":
		err = cmdSim(args)
	case "sweep":
		err = cmdSweep(args)
	case "profile":
		err = cmdProfile(args)
	case "chaos":
		err = cmdChaos(args)
	case "kernel":
		err = cmdKernel(args)
	case "bench":
		err = cmdBench(args)
	case "serve":
		err = cmdServe(args)
	case "table1", "table2", "table3", "table4", "tables":
		err = cmdTables(cmd, args)
	default:
		fmt.Fprintf(os.Stderr, "cdmm: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	return err
}

func usage() {
	fmt.Fprint(os.Stderr, `cdmm - Compiler Directed Memory Management (Malkawi & Patel, SOSP 1985)

commands:
  list                      list the built-in workload programs
  compile  <prog|file.f>    compile and show the inserted memory directives
  locality <prog|file.f>    show the hierarchical locality structure
  trace    <prog|file.f> [-o file]   execute, summarize, optionally save the
                            trace (CDT3, whatever the file name)
  replay   <trace-file> [sim flags]  simulate a policy over a saved trace;
                            CDT3 files stream in O(chunk) memory
  convert  <trace|prog> [-o f] [-chunk N] [-check] [-stat]
                            re-encode any trace (CDT1/CDT2/CDT3 file,
                            workload or program) as CDT3
      -check                       byte-identical round-trip verification
      -stat                        per-section sizes
                            (no input: breakdown for every built-in workload)
  bli      <prog|file.f>    detect runtime localities (Madison-Batson BLIs)
  sim      <prog|file.f> [flags]   simulate one policy over the trace
      -policy cd|lru|fifo|ws|opt   (default cd)
      -level N                     CD directive-set stratum (default 1)
      -m N                         LRU/FIFO/OPT allocation (default 8)
      -tau N                       WS window size (default 500)
  explain  <prog|file.f> [flags]   attribute every page fault to its
                            source loop, statement and directive: ranked
                            hotspot table, directive coverage, per-site
                            CD vs tuned-LRU/WS fault deltas
      -level N                     CD directive-set stratum (default 1)
      -top N                       hotspot table rows (default 12)
      -chrome f.json               Perfetto/Chrome trace-event timeline
      -folded f.txt                folded flamegraph stacks
  report   <prog|file.f>    full markdown analysis report
  advise   <prog|file.f>    compiler advisories (loop interchange, big localities)
  family   compare CD vs WS/DWS/SWS/VSWS/PFF on the suite
  pagesize [prog]           page-size sensitivity study
  detune                    CD sensitivity to mis-estimated locality sizes
  sweep    <prog|file.f>    CD at every level vs tuned LRU and WS
  profile  <prog|file.f> [-buckets N]   fault-timeline and residency
                            sparklines for CD vs tuned LRU and WS
  chaos    [flags]          fault-injection matrix: CD with directive
                            validation + degraded mode under seeded faults
      -seed N                      injector seed (default 1)
      -quick                       smoke mode (two programs, one intensity)
      -progs A,B/set               programs (optionally program/set)
      -faults a,b -intensity x,y   restrict the matrix
      -list                        list the registered fault injectors
  kernel   [flags]          sharded multi-tenant CD kernel: admission
                            control, pressure reclaim, aging, thrash
                            shedding over one overcommitted frame pool
      -tenants N -seed S           population (default 1000)
      -frames F | -overcommit X    pool size, explicit or derived (default 4x)
      -pool cd|lru|ws -level N     per-tenant policy (default cd, level 2)
      -chaos kill,oscillate,corrupt,trip|all -intensity x   fault injection
      -checked=false               skip invariant verification
      -shards N                    fix the shard split (determines results)
      -telemetry                   latency histograms + SLO burn rates
      -top N                       heavy-hitter tenant tables (implies -telemetry)
      -slo                         SLO compliance report (implies -telemetry)
      -incident-dir DIR            write flight-recorder dumps (implies -telemetry)
  bench    [flags]          measure the simulation hot path (ns/ref,
                            allocs/ref, fault anchors) as JSON baselines
      -quick                       short windows (CI smoke mode)
      -o file.json                 write the measured baseline
      -compare base.json           fail on regressions vs a baseline
      -threshold 0.25              ns/ref growth fraction that fails
  serve    [flags] [-- cmd ...]   live telemetry daemon: Prometheus
                            /metrics, /progress + /runs/{id} lifecycle,
                            /events SSE stream, /healthz
      -addr host:port              listen address (default 127.0.0.1:8377)
      -pprof                       expose /debug/pprof/
      -linger 30s                  keep serving after the nested command
      -sse-buffer N                per-subscriber event buffer (default 256)
      -- table1 -j 8               nested command to run with telemetry
  table1..table4 | tables   regenerate the paper's tables

parallelism flag (profile, report, sweep, family, detune, pagesize, chaos, kernel, table*):
  -j N                      run up to N simulations concurrently
                            (default GOMAXPROCS); tables, reports and event
                            streams are byte-identical at any -j

observability flags (sim, replay, profile, table*):
  -events f.jsonl           structured event trace (virtual-time stamped JSONL)
  -metrics f.json           metrics snapshot (counters, gauges, histograms)
  -serve host:port          expose live telemetry for this command (same
                            endpoints as the serve daemon; with -events or
                            -metrics instrumentation stays always-on and the
                            registry is shared with the JSON snapshot)
  -cpuprofile f.pprof       pprof CPU profile of the command
  -memprofile f.pprof       pprof heap profile of the command
`)
}

func cmdList() error {
	for _, p := range workloads.All() {
		sets := make([]string, len(p.Sets))
		for i, s := range p.Sets {
			sets[i] = s.Name
		}
		fmt.Printf("%-8s sets=%-32s %s\n", p.Name, strings.Join(sets, ","), p.Description)
	}
	return nil
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

func withProgram(args []string, fn func(*core.Program, []string) error) error {
	if len(args) < 1 {
		return fmt.Errorf("missing program name or file")
	}
	p, err := loadProgram(args[0])
	if err != nil {
		return err
	}
	return fn(p, args[1:])
}

func cmdFamily(args []string) error {
	fs := flag.NewFlagSet("family", flag.ContinueOnError)
	j := registerJFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.PolicyFamily(newEngine(*j, serveObserver), nil)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFamily(rows))
	return nil
}

func cmdDetune(args []string) error {
	fs := flag.NewFlagSet("detune", flag.ContinueOnError)
	j := registerJFlag(fs)
	cell := fs.Bool("cellmode", false, "replay one full simulation per detune factor instead of the lockstep one-pass grid (the differential oracle)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.DetuneStudy(newEngine(*j, serveObserver).WithCellMode(*cell), nil, nil)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderDetune(rows))
	return nil
}

func cmdPageSize(args []string) error {
	prog := "HWSCRT"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		prog, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("pagesize", flag.ContinueOnError)
	j := registerJFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.PageSizeSensitivity(newEngine(*j, serveObserver), prog, []int{128, 256, 512, 1024})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderPageSize(rows))
	return nil
}

func cmdSim(args []string) error {
	return withProgram(args, func(p *core.Program, rest []string) error {
		fs := flag.NewFlagSet("sim", flag.ContinueOnError)
		polName := fs.String("policy", "cd", "policy: cd, lru, fifo, ws, opt")
		level := fs.Int("level", 1, "CD directive-set stratum")
		frames := intFlagMin(fs, "m", 8, 1, "fixed allocation for lru/fifo/opt")
		tau := intFlagMin(fs, "tau", 500, 1, "WS window size")
		registerJFlag(fs) // accepted for symmetry; sim runs one simulation
		of := registerObsFlags(fs)
		if err := fs.Parse(rest); err != nil {
			return err
		}
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

func cmdSweep(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("missing program name, source file or trace file")
	}
	target := args[0]
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	polName := fs.String("policy", "", "curve policy: lru, ws, fifo, cd (empty: CD-levels summary)")
	grid := fs.String("grid", "", "comma-separated curve grid: allocations (lru/fifo), windows (ws), detune factors (cd)")
	level := fs.Int("level", 1, "CD directive-set stratum (policy cd)")
	asJSON := fs.Bool("json", false, "emit the curve as JSON")
	j := registerJFlag(fs)
	of := registerObsFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	return of.withObs(func() error {
		eng := newEngine(*j, of.observer) // after activate: a -serve tracker attaches here
		if *polName == "" {
			return sweepSummary(eng, target)
		}
		return sweepCurve(os.Stdout, eng, target, *polName, *grid, *level, *asJSON)
	})
}

// sweepSummary is the original sweep report: CD at every directive
// stratum versus the tuned LRU and WS minima, all read from eng (whose
// observer sees the CD runs).
func sweepSummary(eng *engine.Engine, target string) error {
	p, err := loadProgram(target)
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

// sweepSource resolves the sweep target: a saved trace file (CDT3 files
// stream block by block) or a workload/source program's trace.
func sweepSource(target string) (trace.Source, error) {
	if strings.HasSuffix(target, ".cdt1") || strings.HasSuffix(target, ".cdt2") || strings.HasSuffix(target, ".cdt3") {
		return trace.OpenSource(target)
	}
	p, err := loadProgram(target)
	if err != nil {
		return nil, err
	}
	return p.Trace()
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
		// CD needs the program's directive side-band and selector, so the
		// target must be a program; the grid detunes every granted
		// allocation by each factor.
		p, err := loadProgram(target)
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

func cmdTables(which string, args []string) error {
	fs := flag.NewFlagSet(which, flag.ContinueOnError)
	j := registerJFlag(fs)
	cell := fs.Bool("cellmode", false, "compute sweep artifacts by per-cell replay (one full simulation per curve point; the differential oracle)")
	timing := fs.Bool("timing", false, "after rendering, recompute the tables in the other sweep mode and print the wall-clock comparison")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
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

func runTables(which string, eng *engine.Engine) error {
	return runTablesTo(os.Stdout, which, eng)
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

func cmdTrace(args []string) error {
	return withProgram(args, func(p *core.Program, rest []string) error {
		fs := flag.NewFlagSet("trace", flag.ContinueOnError)
		out := fs.String("o", "", "write the trace to this file (CDT3)")
		chunk := fs.Int("chunk", trace.DefaultChunkEvents, "CDT3 chunk size in events")
		repeat := fs.Int("repeat", 1, "replicate the reference string N times in the output (drops directives; for big-trace streaming tests)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
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

func cmdReplay(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("missing trace file")
	}
	// CDT3 files stream block by block in O(chunk) memory; CDT1/CDT2
	// files decode fully (their row encoding has no chunk framing).
	src, err := trace.OpenSource(args[0])
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	polName := fs.String("policy", "cd", "policy: cd, lru, fifo, ws, opt")
	level := fs.Int("level", 1, "CD directive-set stratum")
	frames := intFlagMin(fs, "m", 8, 1, "fixed allocation for lru/fifo/opt")
	tau := intFlagMin(fs, "tau", 500, 1, "WS window size")
	memCeil := fs.Int("memceil", 0, "fail if peak RSS exceeds this many MiB (Linux VmHWM; 0 = no check)")
	registerJFlag(fs) // accepted for symmetry; replay runs one simulation
	of := registerObsFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
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
			// stream; materialize the trace whatever the input format.
			tr, merr := materialize(src, args[0])
			if merr != nil {
				return merr
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

// materialize turns any Source into an in-memory Trace, re-reading the
// file for streamed sources.
func materialize(src trace.Source, path string) (*trace.Trace, error) {
	if tr, ok := src.(*trace.Trace); ok {
		return tr, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}
