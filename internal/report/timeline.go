package report

import (
	"fmt"
	"strings"

	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/obs"
	"cdmm/internal/policy"
	"cdmm/internal/vmsim"
)

// timelineRow is one policy's bucketed run for the timeline view.
type timelineRow struct {
	name string
	tl   *obs.Timeline
	res  vmsim.Result
}

// runCDLevels runs CD at every directive stratum 1..Δ on the engine's
// pool, returning the results indexed by level-1 (declaration order, so
// the report rows and the best-level choice are deterministic).
func runCDLevels(eng *engine.Engine, p *core.Program) ([]vmsim.Result, error) {
	levels := make([]int, p.MaxPI())
	for i := range levels {
		levels[i] = i + 1
	}
	return engine.MapNamed(eng, "cd-levels", levels, func(rc *engine.RunCtx, lvl int) (vmsim.Result, error) {
		rc.Describe(fmt.Sprintf("%s level %d", p.Name, lvl), "CD")
		res, err := p.RunCDObserved(core.CDOptions{Level: lvl}, rc.Obs)
		if err == nil {
			rc.Report(res)
		}
		return res, err
	})
}

// TimelineReport runs the program under CD (full directive set), the
// best-space-time LRU and the best-space-time WS, and renders side-by-side
// fault-timeline and residency sparklines over `buckets` virtual-time
// buckets — the time-resolved view behind the paper's end-of-run PF/MEM/ST
// aggregates. Each row is normalized to its own virtual-time span, so the
// strips show each policy's phase structure rather than a shared clock.
// The three rows are independent simulations and run in parallel on the
// engine's pool; the rendered text is byte-identical at any parallelism
// level.
func TimelineReport(eng *engine.Engine, p *core.Program, buckets int) (string, error) {
	if buckets < 1 {
		buckets = 64
	}
	tr, err := p.Trace()
	if err != nil {
		return "", err
	}
	lru, err := p.LRUSweep()
	if err != nil {
		return "", err
	}
	ws, err := p.WSSweep()
	if err != nil {
		return "", err
	}
	m, _ := lru.MinST()
	tau, _, err := ws.MinST()
	if err != nil {
		return "", err
	}

	// The CD row runs the directive stratum with the least space-time
	// cost — the level the sweep command would crown. Ties break toward
	// the shallower level (strict-less scan in declaration order).
	levelRes, err := runCDLevels(eng, p)
	if err != nil {
		return "", err
	}
	cdLevel, bestST := 1, 0.0
	for i, r := range levelRes {
		if i == 0 || r.ST() < bestST {
			cdLevel, bestST = i+1, r.ST()
		}
	}

	refs := tr.RefsOnly()
	type rowSpec struct {
		label string
		run   func(o *obs.Observer) (vmsim.Result, error)
	}
	specs := []rowSpec{
		{fmt.Sprintf("CD L%d", cdLevel), func(o *obs.Observer) (vmsim.Result, error) {
			return p.RunCDObserved(core.CDOptions{Level: cdLevel}, o)
		}},
		{fmt.Sprintf("LRU m=%d", m), func(o *obs.Observer) (vmsim.Result, error) {
			return vmsim.RunObserved(refs, policy.NewLRU(m), o), nil
		}},
		{fmt.Sprintf("WS tau=%d", tau), func(o *obs.Observer) (vmsim.Result, error) {
			return vmsim.RunObserved(refs, policy.NewWS(tau), o), nil
		}},
	}
	// Each row collects its own timeline events, forwarding to the run's
	// engine-provided observer so -events files still see these runs (in
	// deterministic declaration order, via the engine's merge).
	rows, err := engine.MapNamed(eng, "timeline", specs, func(rc *engine.RunCtx, s rowSpec) (timelineRow, error) {
		rc.Describe(s.label, "")
		col := &obs.Collector{}
		o := &obs.Observer{Tracer: col}
		if amb := rc.Obs; amb != nil {
			if amb.Tracer != nil {
				o.Tracer = obs.MultiTracer{col, amb.Tracer}
			}
			o.Metrics = amb.Metrics
		}
		res, err := s.run(o)
		if err != nil {
			return timelineRow{}, err
		}
		label := s.label
		if res.Degraded {
			// A CD run that tripped directive validation finished on its WS
			// fallback; the row no longer shows pure CD behavior.
			label += " (degraded)"
		}
		return timelineRow{name: label, tl: obs.NewTimeline(col.Events, buckets), res: res}, nil
	})
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "\n## Fault timeline (%d virtual-time buckets per policy)\n\n", buckets)
	b.WriteString("Faults per bucket:\n\n```\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %s  PF=%d\n", r.name, obs.Sparkline(r.tl.FaultsF()), r.res.Faults)
	}
	b.WriteString("```\n\nResident set (time-weighted mean pages per bucket):\n\n```\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %s  MEM=%.2f peak=%d\n",
			r.name, obs.Sparkline(r.tl.Resident), r.res.MEM(), r.res.MaxResident)
	}
	b.WriteString("```\n")
	return b.String(), nil
}
