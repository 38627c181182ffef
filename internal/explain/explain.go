// Package explain turns a site-carrying trace into a per-construct
// explanation of its paging behavior: which loop nest, statement and
// array took the faults, what each inserted directive saved or cost, and
// where the compiler-directed policy wins or loses memory against tuned
// LRU and WS. It is the presentation layer over vmsim.RunAttributed —
// the numbers come from attr.Ledger aggregates whose per-site sums equal
// the run totals by construction.
package explain

import (
	"fmt"
	"strings"

	"cdmm/internal/attr"
	"cdmm/internal/engine"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// Report bundles the attribution ledgers of one workload: CD under the
// directive set, plus tuned LRU and tuned WS over the same reference
// string for per-site comparison.
type Report struct {
	Program string
	// CD, LRU and WS are the three runs' ledgers; LRU and WS ran at
	// their space-time-minimizing parameter.
	CD, LRU, WS *attr.Ledger
	// CDRes, LRURes and WSRes are the matching simulator results.
	CDRes, LRURes, WSRes vmsim.Result
	// LRUFrames and WSTau record the tuned parameters.
	LRUFrames int
	WSTau     int
}

// Analyze runs the three attributed simulations over tr, CD under the
// directive set of stratum level (policy.SelectLevel), reading the
// tuned LRU allocation and WS window from eng's curves for tr. The trace
// must carry the site side-band (every interpreted trace does; a trace
// file may not); without it every fault would land in the unattributed
// bucket and the explanation would be vacuous, so that is an error
// rather than a silent degradation.
func Analyze(eng *engine.Engine, tr *trace.Trace, level int) (*Report, error) {
	if !tr.HasSites() {
		return nil, fmt.Errorf("explain: trace %q carries no site side-band; recompile with sites enabled", tr.Name)
	}
	r := &Report{Program: tr.Name}
	r.CDRes, r.CD = vmsim.RunAttributed(tr, policy.NewCD(policy.SelectLevel(level), 2), nil)

	refs := tr.RefsOnly()
	lru, err := eng.LRUSweep(nil, tr)
	if err != nil {
		return nil, err // unreachable: in-memory cursors cannot fail
	}
	r.LRUFrames, _ = lru.MinST()
	r.LRURes, r.LRU = vmsim.RunAttributed(refs, policy.NewLRU(r.LRUFrames), nil)

	ws, err := eng.WSSweep(nil, tr)
	if err != nil {
		return nil, err
	}
	r.WSTau, _, err = ws.MinST()
	if err != nil {
		return nil, err
	}
	r.WSRes, r.WS = vmsim.RunAttributed(refs, policy.NewWS(r.WSTau), nil)

	for _, led := range []*attr.Ledger{r.CD, r.LRU, r.WS} {
		if err := led.Conservation(); err != nil {
			return nil, fmt.Errorf("explain: %s under %s: %w", tr.Name, led.Policy, err)
		}
	}
	return r, nil
}

// Render formats the report: the ranked fault-hotspot table for the CD
// run, the directive-coverage table, and the per-site CD-vs-LRU and
// CD-vs-WS fault deltas. top bounds the hotspot table (0 means 12).
func Render(r *Report, top int) string {
	if top <= 0 {
		top = 12
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: fault attribution (CD vs LRU m=%d vs WS tau=%d)\n",
		r.Program, r.LRUFrames, r.WSTau)
	fmt.Fprintf(&b, "  CD : PF=%-6d MEM=%-8.2f ST=%.4g\n", r.CDRes.Faults, r.CDRes.MEM(), r.CDRes.ST())
	fmt.Fprintf(&b, "  LRU: PF=%-6d MEM=%-8.2f ST=%.4g\n", r.LRURes.Faults, r.LRURes.MEM(), r.LRURes.ST())
	fmt.Fprintf(&b, "  WS : PF=%-6d MEM=%-8.2f ST=%.4g\n", r.WSRes.Faults, r.WSRes.MEM(), r.WSRes.ST())

	b.WriteString("\nfault hotspots (CD):\n")
	b.WriteString(renderHotspots(r.CD, top))

	if dirs := r.CD.DirectiveSites(); len(dirs) > 0 {
		b.WriteString("\ndirective coverage (CD):\n")
		b.WriteString(renderDirectives(dirs))
	}

	b.WriteString("\nCD vs tuned LRU, per-site fault delta (negative: CD saves faults):\n")
	b.WriteString(renderDiff(attr.Diff(r.CD, r.LRU), "LRU"))
	b.WriteString("\nCD vs tuned WS, per-site fault delta (negative: CD saves faults):\n")
	b.WriteString(renderDiff(attr.Diff(r.CD, r.WS), "WS"))
	return b.String()
}

// renderHotspots is the ranked per-site fault table. The share column is
// each site's fraction of the run's total faults.
func renderHotspots(led *attr.Ledger, top int) string {
	ranked := led.Rank()
	if len(ranked) > top {
		ranked = ranked[:top]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-4s %-44s %9s %7s %7s %8s %6s\n",
		"rank", "site (nest · statement)", "refs", "PF", "IO", "MEM", "share")
	for i, s := range ranked {
		share := 0.0
		if led.Faults > 0 {
			share = float64(s.Faults) / float64(led.Faults) * 100
		}
		fmt.Fprintf(&b, "  %-4d %-44s %9d %7d %7d %8.2f %5.1f%%\n",
			i+1, clip(s.Name(), 44), s.Refs, s.Faults, s.IO(), s.MEM(), share)
	}
	return b.String()
}

// renderDirectives is the directive-effectiveness table: what each
// ALLOCATE/LOCK/UNLOCK insertion point executed, saved, and cost.
func renderDirectives(dirs []*attr.SiteStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-44s %6s %6s %6s %10s %9s %9s %9s\n",
		"site", "allocs", "locks", "unlcks", "lockedHits", "shrinkPF", "releasePF", "lockRels")
	for _, s := range dirs {
		fmt.Fprintf(&b, "  %-44s %6d %6d %6d %10d %9d %9d %9d\n",
			clip(s.Name(), 44), s.Allocs, s.Locks, s.Unlocks,
			s.LockedHits, s.ShrinkFaults, s.ReleaseFaults, s.LockReleases)
	}
	return b.String()
}

// renderDiff shows where the two policies' faults land differently.
func renderDiff(diffs []attr.SiteDiff, other string) string {
	if len(diffs) == 0 {
		return "  (identical per-site fault counts)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-44s %7s %7s %7s\n", "site", "CD", other, "delta")
	for _, d := range diffs {
		name := "<unattributed>"
		if d.ID != trace.NoSite {
			name = d.Site.Nest
			if d.Site.Expr != "" {
				name += " · " + d.Site.Expr
			}
		}
		fmt.Fprintf(&b, "  %-44s %7d %7d %+7d\n", clip(name, 44), d.A, d.B, d.Delta)
	}
	return b.String()
}

// clip shortens s to at most n runes with a trailing ellipsis.
func clip(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}
