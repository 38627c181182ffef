// Benchmark harness regenerating the paper's evaluation: one benchmark per
// table (Tables 1-4 of §5), per-policy microbenchmarks over the workload
// traces, and the ablation studies DESIGN.md calls out — the LOCK/UNLOCK
// ablation (the paper leaves LOCK's effectiveness unstudied), the gap to
// Belady's OPT oracle, and the multiprogramming extension.
//
// Run with: go test -bench=. -benchmem
//
// Each table benchmark reports the reproduced rows through -v logging on
// the first iteration, so `go test -bench=Table -benchtime=1x -v` prints
// the full reproduction alongside the timing.
package cdmm_test

import (
	"bytes"
	"testing"

	"cdmm/internal/bli"
	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/experiments"
	"cdmm/internal/kernel"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// benchEng is shared by the benchmarks that regenerate whole studies, so
// sweeps and CD runs stay memoized across benchmarks and iterations.
var benchEng = engine.New(0)

// BenchmarkTable1 regenerates Table 1: the effect of executing different
// directive sets under the CD policy (MAIN x4, FDJAC x2, TQL x2).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchEng)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderTable1(rows))
		}
	}
}

// BenchmarkTable2 regenerates Table 2: minimal space-time cost of tuned
// LRU and tuned WS versus CD.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchEng)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderTable2(rows))
		}
	}
}

// BenchmarkTable3 regenerates Table 3: LRU and WS versus CD at equal
// average memory.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchEng)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderTable3(rows))
		}
	}
}

// BenchmarkTable4 regenerates Table 4: the memory and space-time cost of
// matching CD's fault count.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(benchEng)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderTable4(rows))
		}
	}
}

// benchTables regenerates all four tables on a fresh engine per iteration
// (so the memoized sweeps and CD runs are recomputed every time — the
// workload compile cache alone persists, matching a cold `cdmm tables`
// invocation with warm sources).
func benchTables(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		eng := engine.New(workers)
		if _, err := experiments.Table1(eng); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table2(eng); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table3(eng); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table4(eng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTablesSequential is the engine's overhead guard: one worker
// degenerates to an inline sequential loop, so this should match the old
// sequential pipeline within noise.
func BenchmarkTablesSequential(b *testing.B) { benchTables(b, 1) }

// BenchmarkTablesParallel regenerates all four tables with the worker
// pool at GOMAXPROCS. On a multi-core machine the table grid's row
// parallelism plus singleflight sharing of the sweeps gives near-linear
// speedup over BenchmarkTablesSequential (≥2x expected on 4+ cores).
func BenchmarkTablesParallel(b *testing.B) { benchTables(b, 0) }

// compiledTrace fetches a workload's cached trace.
func compiledTrace(b *testing.B, name string) *trace.Trace {
	b.Helper()
	c, err := workloads.Compile(name)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := c.Trace()
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkRun measures the vmsim.Run hot path per policy over the
// CONDUCT trace: the allocation-free dense-page loops the perf harness
// guards. ns/ref is reported explicitly; steady-state allocs/op must be 0
// (run with -benchmem). Directive-blind policies replay the shared
// directive-free view, exactly as the unobserved fast path does.
func BenchmarkRun(b *testing.B) {
	tr := compiledTrace(b, "CONDUCT")
	refs := tr.RefsOnly()
	w, _ := workloads.Get("CONDUCT")

	bench := func(name string, tr *trace.Trace, p policy.Policy) {
		b.Run(name, func(b *testing.B) {
			vmsim.Run(tr, p) // warmup sizes every buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vmsim.Run(tr, p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Refs), "ns/ref")
		})
	}
	bench("LRU", refs, policy.NewLRU(32))
	bench("FIFO", refs, policy.NewFIFO(32))
	bench("WS", refs, policy.NewWS(1000))
	bench("CD", tr, policy.NewCD(w.DefaultSet().Selector(), 2))
	bench("PFF", refs, policy.NewPFF(100))
	bench("SWS", refs, policy.NewSWS(250))
	bench("VSWS", refs, policy.NewVSWS(50, 500, 4))
	bench("DWS", refs, policy.NewDWS(1000, 100))
}

// BenchmarkPolicyReplay measures raw simulation throughput per policy over
// the CONDUCT trace (the largest workload).
func BenchmarkPolicyReplay(b *testing.B) {
	tr := compiledTrace(b, "CONDUCT")
	refs := tr.RefsOnly()
	w, _ := workloads.Get("CONDUCT")

	b.Run("LRU", func(b *testing.B) {
		p := policy.NewLRU(32)
		b.SetBytes(int64(refs.Refs))
		for i := 0; i < b.N; i++ {
			vmsim.Run(refs, p)
		}
	})
	b.Run("FIFO", func(b *testing.B) {
		p := policy.NewFIFO(32)
		b.SetBytes(int64(refs.Refs))
		for i := 0; i < b.N; i++ {
			vmsim.Run(refs, p)
		}
	})
	b.Run("WS", func(b *testing.B) {
		p := policy.NewWS(1000)
		b.SetBytes(int64(refs.Refs))
		for i := 0; i < b.N; i++ {
			vmsim.Run(refs, p)
		}
	})
	b.Run("CD", func(b *testing.B) {
		p := policy.NewCD(w.DefaultSet().Selector(), 2)
		b.SetBytes(int64(tr.Refs))
		for i := 0; i < b.N; i++ {
			vmsim.Run(tr, p)
		}
	})
	b.Run("OPT", func(b *testing.B) {
		pages := tr.Pages()
		b.SetBytes(int64(refs.Refs))
		for i := 0; i < b.N; i++ {
			vmsim.Run(refs, policy.NewOPT(pages, 32))
		}
	})
}

// BenchmarkLRUSweepAnalytic measures the one-pass all-allocations LRU
// curve against the trace size.
func BenchmarkLRUSweepAnalytic(b *testing.B) {
	tr := compiledTrace(b, "CONDUCT")
	b.SetBytes(int64(tr.Refs))
	for i := 0; i < b.N; i++ {
		if _, err := sweep.NewLRU(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWSSweepAnalytic measures the one-pass WS histogram build.
func BenchmarkWSSweepAnalytic(b *testing.B) {
	tr := compiledTrace(b, "CONDUCT")
	b.SetBytes(int64(tr.Refs))
	for i := 0; i < b.N; i++ {
		if _, err := sweep.NewWS(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLock quantifies the LOCK/UNLOCK directives' effect —
// the question the paper explicitly leaves open ("The effectiveness of
// LOCK and UNLOCK directives is not studied in this work"): every
// workload's canonical CD run with locks honored versus with lock events
// ignored.
func BenchmarkAblationLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.All() {
			tr := compiledTrace(b, w.Name)
			set := w.DefaultSet()
			withLocks := vmsim.Run(tr, policy.NewCD(set.Selector(), 2))
			noLocks := vmsim.Run(stripLocks(tr), policy.NewCD(set.Selector(), 2))
			if i == 0 {
				b.Logf("%-8s with locks: PF=%-6d ST=%.4g | without: PF=%-6d ST=%.4g (dPF=%+d)",
					w.Name, withLocks.Faults, withLocks.ST(),
					noLocks.Faults, noLocks.ST(), noLocks.Faults-withLocks.Faults)
			}
		}
	}
}

// stripLocks removes LOCK/UNLOCK events, keeping references and ALLOCATEs.
func stripLocks(tr *trace.Trace) *trace.Trace {
	out := trace.New(tr.Name + "-nolocks")
	out.Allocs = tr.Allocs
	_ = tr.WalkBlocks(trace.CursorOpts{}, func(b trace.Block) bool {
		for _, pg := range b.Pages {
			out.AddRef(pg)
		}
		if b.HasDir && b.Dir.Kind == trace.EvAlloc {
			out.Append(b.Dir)
		}
		return true
	})
	return out
}

// BenchmarkAblationOptGap reports how far CD sits from Belady's oracle at
// the same average memory, per workload.
func BenchmarkAblationOptGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.All() {
			tr := compiledTrace(b, w.Name)
			cd := vmsim.Run(tr, policy.NewCD(w.DefaultSet().Selector(), 2))
			m := int(cd.MEM() + 0.5)
			if m < 1 {
				m = 1
			}
			refs := tr.RefsOnly()
			opt := vmsim.Run(refs, policy.NewOPT(tr.Pages(), m))
			if i == 0 {
				b.Logf("%-8s CD: PF=%-6d | OPT(m=%d): PF=%-6d (CD/OPT fault ratio %.2f)",
					w.Name, cd.Faults, m, opt.Faults, float64(cd.Faults)/float64(opt.Faults))
			}
		}
	}
}

// BenchmarkMultiprog measures the multiprogramming extension: a three-job
// mix under CD versus under WS over a shared 80-frame pool, run as a
// kernel job list. Completion is the last job's finish time.
func BenchmarkMultiprog(b *testing.B) {
	mix := []string{"TQL", "HWSCRT", "MAIN"}
	var traces []*trace.Trace
	var sets []workloads.Set
	for _, name := range mix {
		w, err := workloads.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, compiledTrace(b, name))
		sets = append(sets, w.DefaultSet())
	}
	for _, pc := range []struct {
		name string
		pol  func(k int) policy.Policy
	}{
		{"CD", func(k int) policy.Policy { return policy.NewCD(sets[k].Selector(), 2) }},
		{"WS", func(int) policy.Policy { return policy.NewWS(1000) }},
	} {
		b.Run(pc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				jobs := make([]kernel.Job, len(mix))
				for k := range mix {
					jobs[k] = kernel.Job{Source: traces[k], Policy: pc.pol(k)}
				}
				res, err := kernel.Run(kernel.Config{Jobs: jobs, Frames: 80, Checked: true}, engine.New(1))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var done int64
					for _, j := range res.PerTenant {
						done = max(done, j.Finished)
					}
					b.Logf("%s mix: completed=%d suspends=%d pf=%d", pc.name, done, res.Suspends, res.Faults)
				}
			}
		})
	}
}

// BenchmarkCompile measures the full compiler pipeline (parse through
// directive insertion and trace generation) per workload.
func BenchmarkCompile(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// core compiles afresh each time; workloads.Compile would
				// return its cached program.
				p, err := core.CompileSource(w.Name, w.Source)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Trace(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPolicyFamily compares CD against the whole §1 policy family —
// WS, Damped WS, Sampled WS, VSWS and PFF — at CD-matched memory scale.
func BenchmarkPolicyFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PolicyFamily(benchEng, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFamily(rows))
		}
	}
}

// BenchmarkPageSizeSensitivity recompiles HWSCRT and MAIN at page sizes
// 128/256/512/1024 bytes and compares CD against the tuned-LRU minimum —
// the sensitivity study behind the paper's fixed 256-byte assumption.
func BenchmarkPageSizeSensitivity(b *testing.B) {
	sizes := []int{128, 256, 512, 1024}
	for i := 0; i < b.N; i++ {
		for _, prog := range []string{"HWSCRT", "MAIN"} {
			rows, err := experiments.PageSizeSensitivity(benchEng, prog, sizes)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Log("\n" + experiments.RenderPageSize(rows))
			}
		}
	}
}

// BenchmarkBLIDetect measures the Madison-Batson locality-interval
// detector over the largest trace.
func BenchmarkBLIDetect(b *testing.B) {
	tr := compiledTrace(b, "CONDUCT")
	refs := tr.Pages()
	b.SetBytes(int64(len(refs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bli.Detect(refs)
	}
}

// BenchmarkTraceEncode measures CDT3 serialization round trips.
func BenchmarkTraceEncode(b *testing.B) {
	tr := compiledTrace(b, "MAIN")
	b.Run("Write", func(b *testing.B) {
		b.SetBytes(int64(tr.Refs))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if _, err := trace.WriteCDT3(&buf, tr, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	var buf bytes.Buffer
	if _, err := trace.WriteCDT3(&buf, tr, 0); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("Read", func(b *testing.B) {
		b.SetBytes(int64(tr.Refs))
		for i := 0; i < b.N; i++ {
			if _, err := trace.Read(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDetune runs the mis-estimation sensitivity study: every
// ALLOCATE X scaled by 0.5x to 2x, per canonical program.
func BenchmarkDetune(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DetuneStudy(benchEng, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderDetune(rows))
		}
	}
}

// BenchmarkObservabilityOverhead guards the telemetry layer's cost. The
// "Disabled" variant must stay within ~10% of the bare "Baseline" loop:
// with no observer installed, vmsim.Run routes to the original
// un-instrumented loop after a single nil check. "Collector" and
// "Metrics" show the enabled cost for an in-memory tracer and for
// counters+histograms alone.
func BenchmarkObservabilityOverhead(b *testing.B) {
	tr := compiledTrace(b, "CONDUCT")
	w, _ := workloads.Get("CONDUCT")
	newCD := func() policy.Policy { return policy.NewCD(w.DefaultSet().Selector(), 2) }

	b.Run("Baseline", func(b *testing.B) {
		p := newCD()
		b.SetBytes(int64(tr.Refs))
		for i := 0; i < b.N; i++ {
			vmsim.Run(tr, p)
		}
	})
	b.Run("Disabled", func(b *testing.B) {
		p := newCD()
		b.SetBytes(int64(tr.Refs))
		for i := 0; i < b.N; i++ {
			vmsim.RunObserved(tr, p, nil)
		}
	})
	b.Run("Metrics", func(b *testing.B) {
		p := newCD()
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		b.SetBytes(int64(tr.Refs))
		for i := 0; i < b.N; i++ {
			vmsim.RunObserved(tr, p, o)
		}
	})
	b.Run("Collector", func(b *testing.B) {
		p := newCD()
		b.SetBytes(int64(tr.Refs))
		for i := 0; i < b.N; i++ {
			col := &obs.Collector{}
			vmsim.RunObserved(tr, p, &obs.Observer{Tracer: col})
		}
	})
}
