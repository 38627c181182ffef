package report

import (
	"fmt"
	"strings"

	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// timelineBuckets is the virtual-time bucket count of the report's fault
// timeline section.
const timelineBuckets = 64

// timelineRow is one policy's run in the fault timeline: its label, the
// trace it replays and the policy.
type timelineRow struct {
	label string
	tr    *trace.Trace
	pol   policy.Policy
}

// cdLevels runs CD over p's trace tr at every directive stratum 1..Δ
// on the engine's pool, returning the results indexed by level-1
// (declaration order, so the report rows and the best-level choice are
// deterministic). Each level is the engine's memoized CD run.
func cdLevels(eng *engine.Engine, p *core.Program, tr *trace.Trace) ([]vmsim.Result, error) {
	levels := make([]int, p.MaxPI())
	for i := range levels {
		levels[i] = i + 1
	}
	return engine.MapNamed(eng, "cd-levels", levels, func(rc *engine.RunCtx, lvl int) (vmsim.Result, error) {
		rc.Describe(fmt.Sprintf("%s level %d", p.Name, lvl), "CD")
		res, err := eng.CDRun(rc, tr, workloads.Set{Level: lvl}, 2)
		if err != nil {
			return vmsim.Result{}, err
		}
		rc.Report(res)
		return res, nil
	})
}

// writeTimeline replays the rows and renders side-by-side fault-timeline
// and residency sparklines over timelineBuckets virtual-time buckets —
// the time-resolved view behind the paper's end-of-run PF/MEM/ST
// aggregates. Each row is normalized to its own virtual-time span, so the
// strips show each policy's phase structure rather than a shared clock.
// The rows are independent simulations and run in parallel on the
// engine's pool; the rendered text is byte-identical at any parallelism
// level.
func writeTimeline(b *strings.Builder, eng *engine.Engine, rows []timelineRow) error {
	type run struct {
		label string
		tl    *obs.Timeline
		res   vmsim.Result
	}
	// Each row collects its own timeline events, forwarding to the run's
	// engine-provided observer so -events files still see these runs (in
	// deterministic declaration order, via the engine's merge).
	runs, err := engine.MapNamed(eng, "timeline", rows, func(rc *engine.RunCtx, r timelineRow) (run, error) {
		rc.Describe(r.label, "")
		col := &obs.Collector{}
		o := &obs.Observer{Tracer: col}
		if amb := rc.Obs; amb != nil {
			if amb.Tracer != nil {
				o.Tracer = obs.MultiTracer{col, amb.Tracer}
			}
			o.Metrics = amb.Metrics
		}
		res := vmsim.RunObserved(r.tr, r.pol, o)
		label := r.label
		if res.Degraded {
			// A CD run that tripped directive validation finished on its WS
			// fallback; the row no longer shows pure CD behavior.
			label += " (degraded)"
		}
		return run{label: label, tl: obs.NewTimeline(col.Events, timelineBuckets), res: res}, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(b, "\n## Fault timeline (%d virtual-time buckets per policy)\n\n", timelineBuckets)
	b.WriteString("Faults per bucket:\n\n```\n")
	for _, r := range runs {
		fmt.Fprintf(b, "%-12s %s  PF=%d\n", r.label, obs.Sparkline(r.tl.FaultsF()), r.res.Faults)
	}
	b.WriteString("```\n\nResident set (time-weighted mean pages per bucket):\n\n```\n")
	for _, r := range runs {
		fmt.Fprintf(b, "%-12s %s  MEM=%.2f peak=%d\n",
			r.label, obs.Sparkline(r.tl.Resident), r.res.MEM(), r.res.MaxResident)
	}
	b.WriteString("```\n")
	return nil
}
