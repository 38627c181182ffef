// Package report generates a complete per-program analysis document in
// two halves. The compile-time half (CompileTime) is the compiler's view:
// arrays, loop nest, reference orders, locality sizes, inserted
// directives and the advisor's findings. The run half adds the trace
// statistics, the detected Madison-Batson locality intervals, the policy
// comparison (CD at every stratum versus tuned LRU and WS), fault
// attribution and fault timelines — the full story the paper tells, for
// any program.
package report

import (
	"fmt"
	"sort"
	"strings"

	"cdmm/internal/advisor"
	"cdmm/internal/bli"
	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/locality"
	"cdmm/internal/policy"
	"cdmm/internal/sem"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// CompileTime renders the compile-time half of p's report: the title, the
// summary, and the Arrays, Loop nest, Locality structure, Inserted memory
// directives and Compiler advisories sections. It builds no trace.
func CompileTime(p *core.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n%s\n", p.Name, p.Summary())

	writeArrays(&b, p)
	writeLoops(&b, p)

	b.WriteString("\n## Locality structure (Figure 1 view)\n\n```\n")
	b.WriteString(p.RenderLocalityTree())
	b.WriteString("```\n")

	b.WriteString("\n## Inserted memory directives (Figure 5c view)\n\n```\n")
	b.WriteString(p.RenderDirectives())
	b.WriteString("```\n")

	writeAdvisories(&b, p)
	return b.String()
}

// Generate renders the markdown report for a compiled program: its
// CompileTime half, then the run half. eng executes the simulation
// sections' runs; the report text is byte-identical at any parallelism
// level.
func Generate(p *core.Program, eng *engine.Engine) (string, error) {
	var b strings.Builder
	b.WriteString(CompileTime(p))

	tr, err := p.Trace()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\n## Execution trace\n\n%s\n", tr.Summary())

	refs := tr.Pages()
	ivs := bli.Detect(refs)
	b.WriteString("\n## Runtime localities (Madison-Batson intervals)\n\n```\n")
	b.WriteString(bli.Render(ivs, len(refs)))
	b.WriteString("```\n")
	fmt.Fprintf(&b, "\nDominant runtime locality sizes (≥25%% coverage): %v\n",
		bli.DominantSizes(ivs, len(refs), 0.25))

	rows, err := writeSimulation(&b, p, tr, eng)
	if err != nil {
		return "", err
	}
	if err := writeAttribution(&b, tr); err != nil {
		return "", err
	}
	if err := writeTimeline(&b, eng, rows); err != nil {
		return "", err
	}
	return b.String(), nil
}

func writeArrays(b *strings.Builder, p *core.Program) {
	b.WriteString("\n## Arrays\n\n")
	fmt.Fprintf(b, "| array | shape | AVS (pages) | CVS (pages) |\n|---|---|---|---|\n")
	for _, a := range p.AST.Arrays {
		shape := fmt.Sprintf("%d", a.Rows())
		if !a.IsVector() {
			shape = fmt.Sprintf("%d×%d", a.Rows(), a.Cols())
		}
		fmt.Fprintf(b, "| %s | %s | %d | %d |\n", a.Name, shape, p.Layout.AVS(a.Name), p.Layout.CVS(a.Name))
	}
}

func writeLoops(b *strings.Builder, p *core.Program) {
	b.WriteString("\n## Loop nest\n\n")
	fmt.Fprintf(b, "| loop | level Λ | PI | locality X (pages) | reference orders |\n|---|---|---|---|---|\n")
	for _, l := range p.Info.Loops {
		fmt.Fprintf(b, "| %s | %d | %d | %d | %s |\n",
			l.Label(), l.Depth, p.Plan.PI[l], p.Analysis.ActiveSize(l), orders(p.Analysis, l))
	}
}

// orders summarizes the Θ of the arrays referenced directly in the loop.
func orders(a *locality.Analysis, l *sem.Loop) string {
	set := map[string]bool{}
	for _, g := range a.Groups {
		if g.Loop == l {
			set[fmt.Sprintf("%s:%s", g.Array, g.Order)] = true
		}
	}
	if len(set) == 0 {
		return "—"
	}
	parts := make([]string, 0, len(set))
	for s := range set {
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func writeAdvisories(b *strings.Builder, p *core.Program) {
	findings := advisor.Analyze(p.Analysis)
	b.WriteString("\n## Compiler advisories\n\n```\n")
	b.WriteString(advisor.Render(findings))
	b.WriteString("```\n")
}

// writeAttribution explains the level-1 CD run's faults site by site:
// the hotspot table and directive coverage from its attribution ledger.
// A trace without the site side-band (possible for externally built
// traces) simply skips the section.
func writeAttribution(b *strings.Builder, tr *trace.Trace) error {
	if !tr.HasSites() {
		return nil
	}
	_, led := vmsim.RunAttributed(tr, policy.NewCD(policy.SelectLevel(1), 2), nil)
	if err := led.Conservation(); err != nil {
		return fmt.Errorf("report: %s under %s: %w", tr.Name, led.Policy, err)
	}
	b.WriteString("\n## Fault attribution (CD level 1)\n\n")
	ranked := led.Rank()
	fmt.Fprintf(b, "| rank | site | refs | PF | IO | MEM | share |\n|---|---|---|---|---|---|---|\n")
	shown := 0
	for _, s := range ranked {
		if shown == 8 {
			break
		}
		if s.Faults == 0 {
			continue
		}
		shown++
		fmt.Fprintf(b, "| %d | %s | %d | %d | %d | %.2f | %.1f%% |\n",
			shown, s.Name(), s.Refs, s.Faults, s.IO(), s.MEM(),
			float64(s.Faults)/float64(led.Faults)*100)
	}
	if hs := led.Hotspot(); hs != nil {
		fmt.Fprintf(b, "\nHotspot: **%s** takes %d of %d faults.\n",
			hs.Name(), hs.Faults, led.Faults)
	}
	if dirs := led.DirectiveSites(); len(dirs) > 0 {
		fmt.Fprintf(b, "\n| directive site | allocs | locks | unlocks | locked hits | shrink PF | release PF | lock releases |\n|---|---|---|---|---|---|---|---|\n")
		for _, s := range dirs {
			fmt.Fprintf(b, "| %s | %d | %d | %d | %d | %d | %d | %d |\n",
				s.Name(), s.Allocs, s.Locks, s.Unlocks,
				s.LockedHits, s.ShrinkFaults, s.ReleaseFaults, s.LockReleases)
		}
	}
	return nil
}

// writeSimulation writes the policy comparison: CD at every directive
// stratum against the LRU allocation and WS window of least space-time
// cost. It returns the fault timeline's rows: CD at its least-space-time
// stratum and the two tuned baselines.
func writeSimulation(b *strings.Builder, p *core.Program, tr *trace.Trace, eng *engine.Engine) ([]timelineRow, error) {
	b.WriteString("\n## Policy comparison\n\n")
	fmt.Fprintf(b, "| policy | PF | MEM | ST |\n|---|---|---|---|\n")
	results, err := cdLevels(eng, p, tr)
	if err != nil {
		return nil, err
	}
	// Ties break toward the shallower level (strict-less scan in
	// declaration order).
	best := 0
	for i, res := range results {
		fmt.Fprintf(b, "| CD level %d | %d | %.2f | %.4g |\n", i+1, res.Faults, res.MEM(), res.ST())
		if res.ST() < results[best].ST() {
			best = i
		}
	}
	lru, err := eng.LRUSweep(nil, tr)
	if err != nil {
		return nil, err
	}
	m, st := lru.MinST()
	fmt.Fprintf(b, "| best LRU (m=%d) | %d | %.2f | %.4g |\n", m, lru.Faults(m), lru.MEM(m), st)
	ws, err := eng.WSSweep(nil, tr)
	if err != nil {
		return nil, err
	}
	tau, res, err := ws.MinST()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b, "| best WS (τ=%d) | %d | %.2f | %.4g |\n", tau, res.Faults, res.MEM(), res.ST())

	refs := tr.RefsOnly()
	return []timelineRow{
		{fmt.Sprintf("CD L%d", best+1), tr, policy.NewCD(policy.SelectLevel(best+1), 2)},
		{fmt.Sprintf("LRU m=%d", m), refs, policy.NewLRU(m)},
		{fmt.Sprintf("WS tau=%d", tau), refs, policy.NewWS(tau)},
	}, nil
}
