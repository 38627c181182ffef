// Package perf is the machine-readable performance-regression harness:
// it measures the simulation hot path (vmsim.Run) per policy over the
// largest workload trace, and the stages around it — building that trace
// (compile plus interpreter), one-pass sweep curves, streamed decode and
// the multi-tenant kernel. It emits a JSON baseline (ns/ref, allocs/ref,
// and the fault count as a machine-independent sanity anchor), and
// compares a fresh measurement against a checked-in baseline, failing on
// timing regressions beyond a threshold or on any fault-count drift.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/kernel"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// Case is one measured configuration.
type Case struct {
	// Name identifies the policy configuration (stable across runs).
	Name string `json:"name"`
	// Workload and Refs describe the trace measured.
	Workload string `json:"workload"`
	Refs     int    `json:"refs"`
	// NsPerRef is wall-clock nanoseconds per reference (machine-local).
	NsPerRef float64 `json:"ns_per_ref"`
	// AllocsPerRef is steady-state heap allocations per reference; the
	// dense hot path pins this to 0.
	AllocsPerRef float64 `json:"allocs_per_ref"`
	// Faults anchors correctness: it must match the baseline exactly on
	// any machine.
	Faults int `json:"faults"`
}

// Baseline is the serialized result set of one Collect run.
type Baseline struct {
	Schema int    `json:"schema"`
	Quick  bool   `json:"quick"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	Cases  []Case `json:"cases"`
	// ServeOverhead is the fractional ns/ref cost of attaching an
	// unwatched telemetry observer (gated tracer+metrics with no client
	// connected, plus the chunked progress callback) to the CD hot path:
	// (served - plain) / plain, each the min over alternating windows.
	ServeOverhead float64 `json:"serve_overhead"`
	// AttrOverhead is the fractional ns/ref cost the un-instrumented
	// fast path pays for a trace that merely *carries* the site
	// side-band (attribution disabled): (site-carrying - siteless) /
	// siteless, median of interleaved pair ratios. vmsim.Run never reads
	// the side-band, so this must stay near zero.
	AttrOverhead float64 `json:"attr_overhead"`
	// TelemetryOverhead is the fractional cost the kernel pays for the
	// full telemetry plane (histograms, heavy-hitter sketches, SLO
	// counters, flight recorder) when nobody is watching: (telemetry-on -
	// plain) / plain over full kernel runs, median of interleaved pair
	// ratios. The plane is shard-local integer state, so this must stay
	// small.
	TelemetryOverhead float64 `json:"telemetry_overhead"`
	// SweepSpeedupLRU and SweepSpeedupWS are the wall-clock ratios of
	// the per-cell Table 2 capacity columns (one vmsim replay per LRU
	// allocation 1..V; one per τ of the default ladder) to the one-pass
	// sweep curves that replace them, min-of-k timed on CONDUCT. The
	// sweep plane's reason to exist is this ratio; Compare fails when it
	// drops under SweepSpeedupMin.
	SweepSpeedupLRU float64 `json:"sweep_speedup_lru"`
	SweepSpeedupWS  float64 `json:"sweep_speedup_ws"`
}

// Schema is the current baseline file schema version.
const Schema = 1

// ServeOverheadMax is the acceptance ceiling for ServeOverhead: an
// attached-but-unwatched telemetry server may cost at most this
// fraction of the plain hot path.
const ServeOverheadMax = 0.02

// AttrOverheadMax is the acceptance ceiling for AttrOverhead: a trace
// carrying the provenance side-band may slow the un-instrumented fast
// path by at most this fraction.
const AttrOverheadMax = 0.03

// TelemetryOverheadMax is the acceptance ceiling for TelemetryOverhead:
// an unwatched kernel may pay at most this fraction for collecting its
// telemetry plane.
const TelemetryOverheadMax = 0.03

// SweepSpeedupMin is the acceptance floor for SweepSpeedupLRU and
// SweepSpeedupWS: the one-pass sweep curve must beat replaying the
// Table 2 capacity column cell by cell by at least this factor.
const SweepSpeedupMin = 5.0

// caseSpec defines the measured policy matrix. The CONDUCT trace is the
// suite's largest (the hot path the tables and sweeps spend their time
// in); directive-blind policies replay its directive-free view exactly
// like vmsim's unobserved fast path does.
type caseSpec struct {
	name       string
	workload   string
	directives bool
	newPolicy  func(w *workloads.Program) policy.Policy
}

func specs() []caseSpec {
	return []caseSpec{
		{"LRU/m=32", "CONDUCT", false, func(*workloads.Program) policy.Policy { return policy.NewLRU(32) }},
		{"FIFO/m=32", "CONDUCT", false, func(*workloads.Program) policy.Policy { return policy.NewFIFO(32) }},
		{"WS/tau=1000", "CONDUCT", false, func(*workloads.Program) policy.Policy { return policy.NewWS(1000) }},
		{"CD/default", "CONDUCT", true, func(w *workloads.Program) policy.Policy {
			return policy.NewCD(w.DefaultSet().Selector(), 2)
		}},
	}
}

// Collect measures every case and returns a fresh baseline. Quick mode
// shortens the per-case measurement window (for CI smoke jobs); the
// fault anchors are identical either way.
func Collect(quick bool) (*Baseline, error) {
	target := time.Second
	if quick {
		target = 250 * time.Millisecond
	}
	b := &Baseline{Schema: Schema, Quick: quick, GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	for _, sp := range specs() {
		w, err := workloads.Get(sp.workload)
		if err != nil {
			return nil, err
		}
		tr, err := compiledTrace(sp.workload)
		if err != nil {
			return nil, err
		}
		if !sp.directives {
			tr = tr.RefsOnly()
		}
		pol := sp.newPolicy(w)
		res := vmsim.Run(tr, pol) // warmup: sizes every buffer, anchors PF
		cs := measure(target, tr.Refs, func() { vmsim.Run(tr, pol) })
		cs.Name = sp.name
		cs.Workload = sp.workload
		cs.Refs = tr.Refs
		cs.Faults = res.Faults
		b.Cases = append(b.Cases, cs)
	}
	if err := collectTraceBuild(b, target); err != nil {
		return nil, err
	}
	if err := collectBlockStep(b, target); err != nil {
		return nil, err
	}
	if err := collectSweepCurves(b, target); err != nil {
		return nil, err
	}
	if err := collectStreamDecode(b, target); err != nil {
		return nil, err
	}
	if err := collectServeOverhead(b, target); err != nil {
		return nil, err
	}
	if err := collectAttrOverhead(b, target); err != nil {
		return nil, err
	}
	if err := collectKernelStep(b, target); err != nil {
		return nil, err
	}
	if err := collectTelemetryOverhead(b, target); err != nil {
		return nil, err
	}
	return b, nil
}

// collectTraceBuild measures producing the CONDUCT reference string from
// source: each iteration compiles a fresh core.Program (parse through
// directive insertion) and runs the interpreter to build its trace. The
// anchor is the CD/default fault count on the built trace, so the case
// fails if the trace it times changes.
func collectTraceBuild(b *Baseline, target time.Duration) error {
	w, err := workloads.Get("CONDUCT")
	if err != nil {
		return err
	}
	build := func() (*trace.Trace, error) {
		p, err := core.CompileSource(w.Name, w.Source)
		if err != nil {
			return nil, err
		}
		return p.Trace()
	}
	tr, err := build()
	if err != nil {
		return err
	}
	res := vmsim.Run(tr, policy.NewCD(w.DefaultSet().Selector(), 2))
	cs := measure(target, tr.Refs, func() {
		if _, err := build(); err != nil {
			panic(err)
		}
	})
	cs.Name = "trace_build"
	cs.Workload = w.Name
	cs.Refs = tr.Refs
	cs.Faults = res.Faults
	b.Cases = append(b.Cases, cs)
	return nil
}

// collectBlockStep measures StepBlock throughput with the whole CONDUCT
// reference string handed over in one call — the ceiling of the block-
// stepped hot path, with zero cursor or dispatch overhead. The paired
// per-reference measurement (a loop over the concrete LRU.Ref) pins down
// the speedup block stepping buys; the fault anchors tie both to the
// simulated behavior.
func collectBlockStep(b *Baseline, target time.Duration) error {
	tr, err := compiledTrace("CONDUCT")
	if err != nil {
		return err
	}
	pages := tr.RefsOnly().Pages()
	pol := policy.NewLRU(32)
	pol.Reset()
	var warm policy.BlockResult
	pol.StepBlock(pages, &warm)

	cs := measure(target, len(pages), func() {
		pol.Reset()
		var out policy.BlockResult
		pol.StepBlock(pages, &out)
	})
	cs.Name = "block_step/LRU"
	cs.Workload = "CONDUCT"
	cs.Refs = len(pages)
	cs.Faults = warm.Faults
	b.Cases = append(b.Cases, cs)

	cs = measure(target, len(pages), func() {
		pol.Reset()
		for _, pg := range pages {
			pol.Ref(pg)
		}
	})
	cs.Name = "single_step/LRU"
	cs.Workload = "CONDUCT"
	cs.Refs = len(pages)
	cs.Faults = warm.Faults
	b.Cases = append(b.Cases, cs)
	return nil
}

// collectSweepCurves measures the one-pass sweep plane against the
// per-cell replays it replaced. The LRU side builds the whole Mattson
// miss-ratio curve (every allocation 1..V) in one traversal and is
// timed against one vmsim replay per allocation; the WS side builds the
// interval histograms plus the full default-τ-ladder curve against one
// replay per τ. Fault anchors tie each curve to the corresponding
// single-policy case (LRU/m=32, WS/tau=1000), and a differential check
// pins curve results to per-cell results before anything is timed.
func collectSweepCurves(b *Baseline, target time.Duration) error {
	c, err := workloads.Compile("CONDUCT")
	if err != nil {
		return err
	}
	tr, err := c.Trace()
	if err != nil {
		return err
	}
	v := c.V()
	taus := vmsim.DefaultTaus(tr.Refs)

	lru, err := sweep.NewLRU(tr)
	if err != nil {
		return err
	}
	ws, err := sweep.NewWS(tr)
	if err != nil {
		return err
	}
	// Differential anchors: the curves must agree with the cells they
	// summarize, on this machine, before their timings mean anything.
	if got, want := lru.Result(32), vmsim.Run(tr.RefsOnly(), policy.NewLRU(32)); got != want {
		return fmt.Errorf("perf: LRU curve drifted from per-cell replay at m=32: %+v vs %+v", got, want)
	}
	wsCell := vmsim.Run(tr.RefsOnly(), policy.NewWS(1000))
	wsCurve, err := ws.Run(1000)
	if err != nil {
		return err
	}
	if wsCurve != wsCell {
		return fmt.Errorf("perf: WS curve drifted from per-cell replay at tau=1000: %+v vs %+v", wsCurve, wsCell)
	}

	cs := measure(target, tr.Refs, func() {
		if _, err := sweep.NewLRU(tr); err != nil {
			panic(err)
		}
	})
	cs.Name = "sweep_lru_curve"
	cs.Workload = "CONDUCT"
	cs.Refs = tr.Refs
	cs.Faults = lru.Faults(32)
	b.Cases = append(b.Cases, cs)

	cs = measure(target, tr.Refs, func() {
		s, err := sweep.NewWS(tr)
		if err != nil {
			panic(err)
		}
		if _, err := s.Curve(taus); err != nil {
			panic(err)
		}
	})
	cs.Name = "sweep_ws_curve"
	cs.Workload = "CONDUCT"
	cs.Refs = tr.Refs
	cs.Faults = ws.Faults(1000)
	b.Cases = append(b.Cases, cs)

	// Speedups: min-of-k wall clock of the per-cell column over the
	// curve, k small because the cell side replays the trace V (or
	// len(taus)) times per sample.
	curveLRU := minTime(3, func() {
		if _, err := sweep.NewLRU(tr); err != nil {
			panic(err)
		}
	})
	refs := tr.RefsOnly()
	cellLRU := minTime(2, func() {
		for m := 1; m <= v; m++ {
			vmsim.Run(refs, policy.NewLRU(m))
		}
	})
	curveWS := minTime(3, func() {
		s, err := sweep.NewWS(tr)
		if err != nil {
			panic(err)
		}
		if _, err := s.Curve(taus); err != nil {
			panic(err)
		}
	})
	cellWS := minTime(2, func() {
		for _, tau := range taus {
			vmsim.Run(refs, policy.NewWS(tau))
		}
	})
	b.SweepSpeedupLRU = float64(cellLRU.Nanoseconds()) / float64(curveLRU.Nanoseconds())
	b.SweepSpeedupWS = float64(cellWS.Nanoseconds()) / float64(curveWS.Nanoseconds())
	return nil
}

// compiledTrace returns the named workload's trace from the shared
// compile cache.
func compiledTrace(name string) (*trace.Trace, error) {
	c, err := workloads.Compile(name)
	if err != nil {
		return nil, err
	}
	return c.Trace()
}

// minTime returns the fastest of k timed runs of fn.
func minTime(k int, fn func()) time.Duration {
	var best time.Duration
	for i := 0; i < k; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// collectStreamDecode measures the chunked CDT3 decode path: a cursor
// walk over an on-disk encoding of the CONDUCT trace, the cost a
// streamed replay pays on top of the policy loop. The per-iteration
// cursor setup (open, header seek, chunk buffers) amortizes over the
// trace, so allocs/ref still rounds to zero.
func collectStreamDecode(b *Baseline, target time.Duration) error {
	w, err := workloads.Get("CONDUCT")
	if err != nil {
		return err
	}
	tr, err := compiledTrace(w.Name)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp("", "cdmm-perf-*.cdt3")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if _, err := trace.WriteCDT3(f, tr, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	src, err := trace.OpenCDT3(f.Name())
	if err != nil {
		return err
	}
	meta := src.Meta()
	walk := func() int {
		cur := src.Blocks(trace.CursorOpts{})
		defer cur.Close()
		refs := 0
		var blk trace.Block
		for cur.Next(&blk) {
			refs += len(blk.Pages)
		}
		return refs
	}
	if got := walk(); got != meta.Refs {
		return fmt.Errorf("perf: stream decode replayed %d refs, header declares %d", got, meta.Refs)
	}
	// Fault anchor: a streamed replay must fault exactly like the
	// in-memory one (representation independence, checked here so the
	// baseline pins it on every machine).
	memRes := vmsim.Run(tr, policy.NewCD(w.DefaultSet().Selector(), 2))
	streamRes, err := vmsim.RunSource(src, policy.NewCD(w.DefaultSet().Selector(), 2), nil)
	if err != nil {
		return err
	}
	if streamRes != memRes {
		return fmt.Errorf("perf: streamed CD replay drifted: %+v vs %+v", streamRes, memRes)
	}
	cs := measure(target, meta.Refs, func() { walk() })
	cs.Name = "stream_decode"
	cs.Workload = "CONDUCT"
	cs.Refs = meta.Refs
	cs.Faults = streamRes.Faults
	b.Cases = append(b.Cases, cs)
	return nil
}

// gateClosed is the telemetry daemon's gate state when no client is
// connected: never open, so observed runs take the fast path.
type gateClosed struct{}

func (gateClosed) Open() bool { return false }

// servedObserver mirrors serve.Server.Observer() plus the progress
// callback the engine tracker installs: tracer and metrics present but
// gated off, progress stored with lock-free atomics.
func servedObserver() *obs.Observer {
	var done, vt atomic.Int64
	return &obs.Observer{
		Tracer:  &obs.Collector{},
		Metrics: obs.NewRegistry(),
		Gate:    gateClosed{},
		Progress: func(d, t int, v int64) {
			done.Store(int64(d))
			vt.Store(v)
		},
	}
}

// collectServeOverhead measures the CD hot path plain and with an
// unwatched telemetry observer attached, alternating min-of-k windows
// so scheduler noise cancels, and anchors that the served run's fault
// count is identical (attaching a server must not change results).
func collectServeOverhead(b *Baseline, target time.Duration) error {
	w, err := workloads.Get("CONDUCT")
	if err != nil {
		return err
	}
	tr, err := compiledTrace(w.Name)
	if err != nil {
		return err
	}
	pol := policy.NewCD(w.DefaultSet().Selector(), 2)
	o := servedObserver()
	plainRes := vmsim.Run(tr, pol)
	servedRes := vmsim.RunObserved(tr, pol, o)
	if servedRes.Faults != plainRes.Faults {
		return fmt.Errorf("perf: serve-attached CD run drifted: PF %d, want %d",
			servedRes.Faults, plainRes.Faults)
	}
	// Alternate single plain/served runs and take the median of the
	// per-pair time ratios: the two runs of a pair are adjacent in time,
	// so frequency scaling and scheduler drift cancel within each pair,
	// and the median discards the pairs a descheduling corrupted.
	var ratios []float64
	deadline := time.Now().Add(2 * target)
	for len(ratios) < 8 || time.Now().Before(deadline) {
		t0 := time.Now()
		vmsim.Run(tr, pol)
		plain := time.Since(t0)
		t0 = time.Now()
		vmsim.RunObserved(tr, pol, o)
		served := time.Since(t0)
		ratios = append(ratios, float64(served.Nanoseconds())/float64(plain.Nanoseconds()))
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	median := ratios[mid]
	if len(ratios)%2 == 0 {
		median = (ratios[mid-1] + ratios[mid]) / 2
	}
	b.ServeOverhead = median - 1
	return nil
}

// collectAttrOverhead measures the CD hot path on the site-carrying
// CONDUCT trace against its siteless projection, interleaving pairs and
// taking the median ratio (like collectServeOverhead). It also anchors
// that the attributed loop reproduces the fast path's Result exactly —
// the attribution plane must explain the run, never change it.
func collectAttrOverhead(b *Baseline, target time.Duration) error {
	w, err := workloads.Get("CONDUCT")
	if err != nil {
		return err
	}
	sited, err := compiledTrace(w.Name)
	if err != nil {
		return err
	}
	if !sited.HasSites() {
		return fmt.Errorf("perf: CONDUCT trace lost its site side-band")
	}
	siteless := sited.WithoutSites()
	pol := policy.NewCD(w.DefaultSet().Selector(), 2)
	plainRes := vmsim.Run(siteless, pol)
	sitedRes := vmsim.Run(sited, pol)
	if sitedRes != plainRes {
		return fmt.Errorf("perf: site-carrying trace changed the fast path: %+v vs %+v", sitedRes, plainRes)
	}
	attrRes, led := vmsim.RunAttributed(sited, pol, nil)
	if attrRes != plainRes {
		return fmt.Errorf("perf: attributed run drifted from fast path: %+v vs %+v", attrRes, plainRes)
	}
	if err := led.Conservation(); err != nil {
		return err
	}
	var ratios []float64
	deadline := time.Now().Add(2 * target)
	for len(ratios) < 8 || time.Now().Before(deadline) {
		t0 := time.Now()
		vmsim.Run(siteless, pol)
		plain := time.Since(t0)
		t0 = time.Now()
		vmsim.Run(sited, pol)
		carrying := time.Since(t0)
		ratios = append(ratios, float64(carrying.Nanoseconds())/float64(plain.Nanoseconds()))
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	median := ratios[mid]
	if len(ratios)%2 == 0 {
		median = (ratios[mid-1] + ratios[mid]) / 2
	}
	b.AttrOverhead = median - 1
	return nil
}

// collectKernelStep measures the multi-tenant kernel end to end: a
// fixed 96-tenant population over two shards on one worker, so the
// number covers spec derivation, the admission/reclaim scheduler loop
// and block-stepped replay of streams generated on demand. Per-ref
// allocations are nonzero here by design (each iteration derives the
// population and opens every tenant's stream and policy); the anchor is
// the aggregate fault count, which is deterministic for a fixed config
// on any machine.
func collectKernelStep(b *Baseline, target time.Duration) error {
	cfg := kernel.Config{Tenants: 96, Shards: 2, Seed: 1, Scale: 0.25}
	eng := engine.New(1)
	warm, err := kernel.Run(cfg, eng)
	if err != nil {
		return err
	}
	if len(warm.Violations) > 0 {
		return fmt.Errorf("perf: kernel warmup violated invariants: %s", warm.Violations[0])
	}
	cs := measure(target, int(warm.Refs), func() {
		if _, err := kernel.Run(cfg, eng); err != nil {
			panic(err)
		}
	})
	cs.Name = "kernel_step"
	cs.Workload = "synthetic/96"
	cs.Refs = int(warm.Refs)
	cs.Faults = int(warm.Faults)
	b.Cases = append(b.Cases, cs)
	return nil
}

// collectTelemetryOverhead measures the kernel plain and with the full
// telemetry plane on (no store attached — the unwatched configuration),
// interleaving pairs and taking the median ratio like the other
// overhead gates. It also anchors that telemetry does not perturb the
// run: the instrumented kernel's fault count must match the plain one.
// Full-length workloads, unlike kernel_step's quarter-scale ones: the
// plane's cost is dominated by the fixed end-of-run merge and snapshot,
// so a short scaled run would overstate the ratio a real population
// pays.
func collectTelemetryOverhead(b *Baseline, target time.Duration) error {
	plain := kernel.Config{Tenants: 96, Shards: 2, Seed: 1}
	instr := plain
	instr.Telemetry = true
	eng := engine.New(1)
	plainRes, err := kernel.Run(plain, eng)
	if err != nil {
		return err
	}
	instrRes, err := kernel.Run(instr, eng)
	if err != nil {
		return err
	}
	if instrRes.Faults != plainRes.Faults || instrRes.Refs != plainRes.Refs {
		return fmt.Errorf("perf: telemetry perturbed the kernel: pf %d refs %d, want pf %d refs %d",
			instrRes.Faults, instrRes.Refs, plainRes.Faults, plainRes.Refs)
	}
	if instrRes.Telemetry == nil {
		return fmt.Errorf("perf: telemetry on but no snapshot collected")
	}
	// Unrecorded warm-up pairs grow the heap to its steady state before
	// anything is timed — the first instrumented runs otherwise pay the
	// one-time heap growth for the plane's buffers and bias the ratio.
	for i := 0; i < 2; i++ {
		if _, err := kernel.Run(plain, eng); err != nil {
			return err
		}
		if _, err := kernel.Run(instr, eng); err != nil {
			return err
		}
	}
	runtime.GC()
	// Alternate plain and instrumented runs and compare the *minimum*
	// time of each: both workloads are deterministic, so the minimum over
	// many runs converges on the true cost, and scheduler or GC noise —
	// which only ever adds time — cannot bias the ratio the way it smears
	// a median of pair ratios on a loaded machine.
	// The window is longer than the other collectors': each sample is a
	// whole kernel run, and the min needs enough draws on both sides to
	// land in an uncontended scheduling slot.
	minOff, minOn := time.Duration(1<<62), time.Duration(1<<62)
	pairs := 0
	deadline := time.Now().Add(6 * target)
	for pairs < 32 || time.Now().Before(deadline) {
		t0 := time.Now()
		if _, err := kernel.Run(plain, eng); err != nil {
			return err
		}
		if d := time.Since(t0); d < minOff {
			minOff = d
		}
		t0 = time.Now()
		if _, err := kernel.Run(instr, eng); err != nil {
			return err
		}
		if d := time.Since(t0); d < minOn {
			minOn = d
		}
		pairs++
	}
	b.TelemetryOverhead = float64(minOn.Nanoseconds())/float64(minOff.Nanoseconds()) - 1
	return nil
}

// measure times fn over a wall-clock window and reports per-ref cost and
// steady-state allocation rate.
func measure(target time.Duration, refs int, fn func()) Case {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for elapsed := time.Duration(0); elapsed < target || iters < 3; {
		fn()
		iters++
		elapsed = time.Since(start)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	perIter := float64(elapsed.Nanoseconds()) / float64(iters)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(iters)
	return Case{
		NsPerRef:     perIter / float64(refs),
		AllocsPerRef: allocs / float64(refs),
	}
}

// Save writes a baseline as indented JSON.
func Save(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a baseline file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != Schema {
		return nil, fmt.Errorf("%s: baseline schema %d, want %d", path, b.Schema, Schema)
	}
	return &b, nil
}

// Gates renders every whole-run number Compare gates, beside its
// ceiling or floor: the three overheads and the two sweep speedups.
func Gates(b *Baseline) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "serve overhead (no client attached): %+.2f%% (ceiling +%.0f%%)\n",
		100*b.ServeOverhead, 100*ServeOverheadMax)
	fmt.Fprintf(&sb, "attr side-band overhead (attribution off): %+.2f%% (ceiling +%.0f%%)\n",
		100*b.AttrOverhead, 100*AttrOverheadMax)
	fmt.Fprintf(&sb, "kernel telemetry overhead (unwatched): %+.2f%% (ceiling +%.0f%%)\n",
		100*b.TelemetryOverhead, 100*TelemetryOverheadMax)
	fmt.Fprintf(&sb, "sweep LRU curve vs per-cell column: %.1fx (floor %.0fx)\n", b.SweepSpeedupLRU, SweepSpeedupMin)
	fmt.Fprintf(&sb, "sweep WS curve vs per-cell column: %.1fx (floor %.0fx)\n", b.SweepSpeedupWS, SweepSpeedupMin)
	return sb.String()
}

// Compare renders a benchstat-style old/new table followed by the
// current run's Gates, and returns the list of regressions: cases whose
// ns/ref grew more than threshold (a fraction, e.g. 0.25 for +25%),
// whose allocs/ref became nonzero, or whose fault anchor drifted, and
// every overhead over its ceiling or speedup under its floor. Cases
// present on only one side are reported but never fail the comparison
// (the matrix may grow).
func Compare(baseline, current *Baseline, threshold float64) (string, []string) {
	var sb strings.Builder
	var regressions []string
	base := map[string]Case{}
	for _, c := range baseline.Cases {
		base[c.Name] = c
	}
	fmt.Fprintf(&sb, "%-14s %12s %12s %8s  %s\n", "case", "old ns/ref", "new ns/ref", "delta", "allocs/ref")
	seen := map[string]bool{}
	for _, c := range current.Cases {
		seen[c.Name] = true
	}
	for _, c := range current.Cases {
		old, ok := base[c.Name]
		if !ok {
			fmt.Fprintf(&sb, "%-14s %12s %12.2f %8s  %.3f (new case)\n", c.Name, "-", c.NsPerRef, "-", c.AllocsPerRef)
			continue
		}
		delta := (c.NsPerRef - old.NsPerRef) / old.NsPerRef
		fmt.Fprintf(&sb, "%-14s %12.2f %12.2f %+7.1f%%  %.3f\n",
			c.Name, old.NsPerRef, c.NsPerRef, 100*delta, c.AllocsPerRef)
		if delta > threshold {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/ref %.2f -> %.2f (%+.1f%% > +%.0f%%)",
					c.Name, old.NsPerRef, c.NsPerRef, 100*delta, 100*threshold))
		}
		if old.AllocsPerRef == 0 && c.AllocsPerRef > 0.001 {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/ref %.4f, want 0", c.Name, c.AllocsPerRef))
		}
		if c.Faults != old.Faults {
			regressions = append(regressions,
				fmt.Sprintf("%s: fault anchor drifted %d -> %d (simulation behavior changed)",
					c.Name, old.Faults, c.Faults))
		}
	}
	var missing []string
	for name := range base {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(&sb, "%-14s (missing from current run)\n", name)
	}
	sb.WriteString(Gates(current))
	if current.ServeOverhead > ServeOverheadMax {
		regressions = append(regressions,
			fmt.Sprintf("serve-attached overhead %+.2f%% > +%.0f%% (unwatched telemetry is no longer near-free)",
				100*current.ServeOverhead, 100*ServeOverheadMax))
	}
	if current.AttrOverhead > AttrOverheadMax {
		regressions = append(regressions,
			fmt.Sprintf("site side-band overhead %+.2f%% > +%.0f%% (carrying provenance is no longer free on the fast path)",
				100*current.AttrOverhead, 100*AttrOverheadMax))
	}
	if current.TelemetryOverhead > TelemetryOverheadMax {
		regressions = append(regressions,
			fmt.Sprintf("kernel telemetry overhead %+.2f%% > +%.0f%% (the unwatched telemetry plane is no longer near-free)",
				100*current.TelemetryOverhead, 100*TelemetryOverheadMax))
	}
	// The speedup gates only arm once a baseline records them (older
	// baselines carry zero), so growing the matrix never fails retroactively.
	for _, s := range []struct {
		name      string
		base, cur float64
	}{
		{"LRU", baseline.SweepSpeedupLRU, current.SweepSpeedupLRU},
		{"WS", baseline.SweepSpeedupWS, current.SweepSpeedupWS},
	} {
		if s.base > 0 && s.cur < SweepSpeedupMin {
			regressions = append(regressions,
				fmt.Sprintf("sweep %s curve speedup %.1fx < %.0fx (one-pass sweep no longer pays for itself)",
					s.name, s.cur, SweepSpeedupMin))
		}
	}
	return sb.String(), regressions
}
