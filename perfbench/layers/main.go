// Command layers is the benchmark's traced per-layer pass. It performs a
// workload's command in-process, again and again, with a span around
// each call into a layer, checks every output against the CLI's (byte
// for byte), and prints the median per-layer costs as one JSON result
// line. The perfbench driver builds and runs it for -trace 1, after
// writing the CLI's reference output into -work.
//
// Every workload passes through the same three stages, named after the
// layers they call:
//
//	front  the input front end: FORTRAN parse, semantic analysis,
//	       layout, locality analysis and directive insertion (tables);
//	       deriving the tenant specs (kernel)
//	build  producing the reference stream: the interpreter's trace
//	       build (tables); synthesizing every tenant trace (kernel)
//	sim    simulation and rendering: the paper's tables from a fresh
//	       engine (tables); kernel.Run (kernel). The kernel synthesizes
//	       its tenants again inside Run, so there sim includes build
//	       work a second time.
//
// A round is one performance of the command. Per-layer metrics (medians
// over the rounds of the run):
//
//	front_ms, build_ms, sim_ms                   wall time of each stage
//	front_alloc_mib, build_alloc_mib, sim_alloc_mib   heap allocated
//	round_ms                                     one whole traced command
//	refs_built                                   references the build
//	                                             stage produced per round
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/kernel"
	"cdmm/internal/workloads"
	"cdmm/perfbench/plan"
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(plan.Names, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	work := flag.String("work", "", "directory holding the CLI's reference output")
	flag.Parse()

	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Stage indexes.
const (
	front = iota
	build
	sim
	nStages
)

var stageNames = [nStages]string{"front", "build", "sim"}

// round accumulates one round's spans.
type round struct {
	wall  [nStages]time.Duration
	alloc [nStages]uint64
	refs  int64
}

// span runs fn as part of stage s, adding its wall time and heap
// allocation to the round.
func (r *round) span(s int, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	r.wall[s] += time.Since(start)
	runtime.ReadMemStats(&after)
	r.alloc[s] += after.TotalAlloc - before.TotalAlloc
	return err
}

func run(workload string, seed int64, window time.Duration, work string) (*plan.Result, error) {
	// do performs the workload's command, returning the text the CLI
	// prints for it.
	var do func(r *round) (string, error)
	switch workload {
	case plan.Tables:
		do = tablesOp
	case plan.Kernel:
		do = func(r *round) (string, error) { return kernelOp(r, uint64(seed)) }
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, plan.Names)
	}
	data, err := os.ReadFile(plan.ExpectPath(work))
	if err != nil {
		return nil, err
	}
	expect := string(data)

	res := &plan.Result{}
	doRound := func() round {
		var r round
		res.Attempted++
		out, err := do(&r)
		if err == nil && out != expect {
			err = errors.New("in-process output differs from the CLI's")
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "layers: %s: %v\n", workload, err)
		}
		return r
	}
	// One untimed round fills the process-wide compile cache the tables
	// read.
	doRound()
	var rounds []round
	var totals []float64
	deadline := time.Now().Add(window)
	for len(rounds) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		rounds = append(rounds, doRound())
		totals = append(totals, ms(time.Since(start)))
	}

	res.Correct = res.Failed == 0
	res.Metrics = map[string]plan.Metric{
		"round_ms":   {Value: plan.Median(totals), Unit: "ms"},
		"refs_built": {Value: float64(rounds[0].refs), Unit: "count"},
	}
	for s, name := range stageNames {
		walls, allocs := make([]float64, len(rounds)), make([]float64, len(rounds))
		for i, r := range rounds {
			walls[i] = ms(r.wall[s])
			allocs[i] = float64(r.alloc[s]) / (1 << 20)
		}
		res.Metrics[name+"_ms"] = plan.Metric{Value: plan.Median(walls), Unit: "ms"}
		res.Metrics[name+"_alloc_mib"] = plan.Metric{Value: plan.Median(allocs), Unit: "MiB"}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tablesOp compiles and traces the whole suite, then renders Tables 1-4
// from a fresh engine as `cdmm tables` does. The tables read the suite
// through the process-wide compile cache, which the warm-up round fills,
// so the sim stage times simulation and rendering only.
func tablesOp(r *round) (string, error) {
	all := workloads.All()
	progs := make([]*core.Program, len(all))
	if err := r.span(front, func() error {
		for i, w := range all {
			p, err := core.CompileSource(w.Name, w.Source)
			if err != nil {
				return err
			}
			progs[i] = p
		}
		return nil
	}); err != nil {
		return "", err
	}
	if err := r.span(build, func() error {
		for _, p := range progs {
			tr, err := p.Trace()
			if err != nil {
				return err
			}
			r.refs += int64(tr.Refs)
		}
		return nil
	}); err != nil {
		return "", err
	}
	var out strings.Builder
	err := r.span(sim, func() error {
		eng := engine.New(0)
		rows1, err := experiments.Table1(eng)
		if err != nil {
			return err
		}
		rows2, err := experiments.Table2(eng)
		if err != nil {
			return err
		}
		rows3, err := experiments.Table3(eng)
		if err != nil {
			return err
		}
		rows4, err := experiments.Table4(eng)
		if err != nil {
			return err
		}
		for _, t := range []string{experiments.RenderTable1(rows1), experiments.RenderTable2(rows2),
			experiments.RenderTable3(rows3), experiments.RenderTable4(rows4)} {
			out.WriteString(t + "\n")
		}
		return nil
	})
	return out.String(), err
}

// kernelOp derives and synthesizes the tenant population, then runs
// the kernel with the configuration `cdmm kernel -tenants N -chaos all`
// builds from its flag defaults.
func kernelOp(r *round, seed uint64) (string, error) {
	specs := make([]kernel.SynthSpec, plan.KernelTenants)
	// Spec derivation and trace synthesis cannot fail.
	_ = r.span(front, func() error {
		for i := range specs {
			specs[i] = kernel.NewSynthSpec(seed, i, 1)
		}
		return nil
	})
	_ = r.span(build, func() error {
		for i := range specs {
			r.refs += int64(specs[i].Materialize().Refs)
		}
		return nil
	})
	cfg := kernel.Config{
		Tenants:    plan.KernelTenants,
		Overcommit: 4,
		Seed:       seed,
		Pool:       "cd",
		Level:      2,
		Quantum:    512,
		Checked:    true,
	}
	cfg.Chaos.Intensity = 0.4
	cfg.Chaos.Kill, cfg.Chaos.Oscillate, cfg.Chaos.Corrupt = true, true, true
	var res *kernel.Result
	err := r.span(sim, func() error {
		var err error
		res, err = kernel.Run(cfg, engine.New(0))
		return err
	})
	if err != nil {
		return "", err
	}
	return res.String() + "\n", nil
}
