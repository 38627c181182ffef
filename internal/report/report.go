// Package report generates a complete per-program analysis document: the
// compiler's view (arrays, loop nest, reference orders, locality sizes,
// inserted directives), the runtime view (trace statistics, detected
// Madison-Batson locality intervals), the policy comparison (CD at every
// stratum versus tuned LRU and WS), and the advisor's findings — the
// full story the paper tells, for any program.
package report

import (
	"fmt"
	"sort"
	"strings"

	"cdmm/internal/advisor"
	"cdmm/internal/bli"
	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/explain"
	"cdmm/internal/locality"
	"cdmm/internal/sem"
	"cdmm/internal/trace"
)

// timelineBuckets is the virtual-time bucket count of the report's fault
// timeline section.
const timelineBuckets = 64

// Options controls report contents.
type Options struct {
	// SkipBLI disables the (relatively expensive) runtime locality
	// interval detection.
	SkipBLI bool
	// SkipSimulation disables the policy comparison section.
	SkipSimulation bool
	// Engine executes the simulation sections' runs; it is required
	// unless SkipSimulation is set. The report text is byte-identical at
	// any parallelism level.
	Engine *engine.Engine
}

// Generate renders the markdown report for a compiled program.
func Generate(p *core.Program, opts Options) (string, error) {
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

	tr, err := p.Trace()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\n## Execution trace\n\n%s\n", tr.Summary())

	if !opts.SkipBLI {
		refs := tr.Pages()
		ivs := bli.Detect(refs, bli.Config{MaxSize: p.V() + 4})
		b.WriteString("\n## Runtime localities (Madison-Batson intervals)\n\n```\n")
		b.WriteString(bli.Render(ivs, len(refs)))
		b.WriteString("```\n")
		fmt.Fprintf(&b, "\nDominant runtime locality sizes (≥25%% coverage): %v\n",
			bli.DominantSizes(ivs, len(refs), 0.25))
	}

	if !opts.SkipSimulation {
		if err := writeSimulation(&b, p, tr, opts.Engine); err != nil {
			return "", err
		}
		if err := writeAttribution(&b, opts.Engine, tr); err != nil {
			return "", err
		}
		tl, err := TimelineReport(opts.Engine, p, timelineBuckets)
		if err != nil {
			return "", err
		}
		b.WriteString(tl)
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
	findings := advisor.Analyze(p.Analysis, advisor.Options{})
	b.WriteString("\n## Compiler advisories\n\n```\n")
	b.WriteString(advisor.Render(findings))
	b.WriteString("```\n")
}

// writeAttribution explains the CD run's faults site by site: the
// hotspot table and directive coverage from the attribution ledger. A
// trace without the site side-band (possible for externally built
// traces) simply skips the section.
func writeAttribution(b *strings.Builder, eng *engine.Engine, tr *trace.Trace) error {
	if !tr.HasSites() {
		return nil
	}
	rep, err := explain.Analyze(eng, tr, explain.Options{})
	if err != nil {
		return err
	}
	b.WriteString("\n## Fault attribution (CD level 1)\n\n")
	ranked := rep.CD.Rank()
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
			float64(s.Faults)/float64(rep.CD.Faults)*100)
	}
	if hs := rep.CD.Hotspot(); hs != nil {
		fmt.Fprintf(b, "\nHotspot: **%s** takes %d of %d faults.\n",
			hs.Name(), hs.Faults, rep.CD.Faults)
	}
	if dirs := rep.CD.DirectiveSites(); len(dirs) > 0 {
		fmt.Fprintf(b, "\n| directive site | allocs | locks | unlocks | locked hits | shrink PF | release PF | lock releases |\n|---|---|---|---|---|---|---|---|\n")
		for _, s := range dirs {
			fmt.Fprintf(b, "| %s | %d | %d | %d | %d | %d | %d | %d |\n",
				s.Name(), s.Allocs, s.Locks, s.Unlocks,
				s.LockedHits, s.ShrinkFaults, s.ReleaseFaults, s.LockReleases)
		}
	}
	return nil
}

func writeSimulation(b *strings.Builder, p *core.Program, tr *trace.Trace, eng *engine.Engine) error {
	b.WriteString("\n## Policy comparison\n\n")
	fmt.Fprintf(b, "| policy | PF | MEM | ST |\n|---|---|---|---|\n")
	results, err := CDLevels(eng, p, tr)
	if err != nil {
		return err
	}
	for i, res := range results {
		fmt.Fprintf(b, "| CD level %d | %d | %.2f | %.4g |\n", i+1, res.Faults, res.MEM(), res.ST())
	}
	lru, err := eng.LRUSweep(nil, tr)
	if err != nil {
		return err
	}
	m, st := lru.MinST()
	fmt.Fprintf(b, "| best LRU (m=%d) | %d | %.2f | %.4g |\n", m, lru.Faults(m), lru.MEM(m), st)
	ws, err := eng.WSSweep(nil, tr)
	if err != nil {
		return err
	}
	tau, res, err := ws.MinST()
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "| best WS (τ=%d) | %d | %.2f | %.4g |\n", tau, res.Faults, res.MEM(), res.ST())
	return nil
}
