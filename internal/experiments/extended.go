package experiments

import (
	"fmt"
	"strings"

	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// FamilyRow compares the whole §1 policy family against CD on one program:
// WS and its cheaper realizations (SWS, VSWS), the damped variant (DWS),
// and PFF. Parameters are scale-matched to CD's average memory through
// the WS window that reproduces it (τ*), rather than oracle-tuned:
// SWS samples at σ = τ*, VSWS uses (τ*/4, 2τ*, Q=4), DWS damps at τ*/8,
// and PFF thresholds at τ*/4 — the natural correspondences from the
// policies' own papers.
type FamilyRow struct {
	Variant Variant
	Tau     int
	CD      vmsim.Result
	WS      vmsim.Result
	DWS     vmsim.Result
	SWS     vmsim.Result
	VSWS    vmsim.Result
	PFF     vmsim.Result
}

// PolicyFamily runs the comparison for the given variants (nil means the
// Table 2 canonical set), one engine run per variant.
func PolicyFamily(eng *engine.Engine, variants []Variant) ([]FamilyRow, error) {
	if variants == nil {
		variants = Table2Variants
	}
	return engine.MapNamed(eng, "family", variants, func(rc *engine.RunCtx, v Variant) (FamilyRow, error) {
		rc.Describe(v.Program+"/"+v.Set, "CD vs WS family")
		tr, cd, err := cdRun(eng, rc, v)
		if err != nil {
			return FamilyRow{}, err
		}
		ws, err := eng.WSSweep(rc, tr)
		if err != nil {
			return FamilyRow{}, err
		}
		tau := ws.TauForMEM(cd.MEM())
		if tau < 4 {
			tau = 4
		}
		refs := tr.RefsOnly()
		o := rc.Obs
		return FamilyRow{
			Variant: v,
			Tau:     tau,
			CD:      cd,
			WS:      vmsim.RunObserved(refs, policy.NewWS(tau), o),
			DWS:     vmsim.RunObserved(refs, policy.NewDWS(tau, max(1, tau/8)), o),
			SWS:     vmsim.RunObserved(refs, policy.NewSWS(tau), o),
			VSWS:    vmsim.RunObserved(refs, policy.NewVSWS(max(1, tau/4), 2*tau, 4), o),
			PFF:     vmsim.RunObserved(refs, policy.NewPFF(max(1, tau/4)), o),
		}, nil
	})
}

// RenderFamily formats the policy-family comparison.
func RenderFamily(rows []FamilyRow) string {
	var b strings.Builder
	b.WriteString("Policy family at CD-matched memory scale (PF | MEM | ST)\n")
	fmt.Fprintf(&b, "%-8s %6s | %26s | %26s | %26s | %26s | %26s | %26s\n",
		"PROGRAM", "tau*", "CD", "WS", "DWS", "SWS", "VSWS", "PFF")
	cell := func(r vmsim.Result) string {
		return fmt.Sprintf("%7d %7.1f %10.3g", r.Faults, r.MEM(), r.ST())
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %6d | %s | %s | %s | %s | %s | %s\n",
			r.Variant.Set, r.Tau, cell(r.CD), cell(r.WS), cell(r.DWS), cell(r.SWS), cell(r.VSWS), cell(r.PFF))
	}
	return b.String()
}

// PageSizeRow reports one program's CD-versus-best-LRU comparison at one
// page size — the sensitivity study the paper's fixed 256-byte assumption
// invites.
type PageSizeRow struct {
	Program  string
	PageSize int
	V        int
	CDPF     int
	CDMEM    float64
	CDST     float64
	LRUMinST float64
	PctSTLRU float64
}

// PageSizeSensitivity recompiles the named workload at each page size and
// compares CD (canonical set) against the tuned-LRU minimum. Page size
// changes everything downstream — AVS/CVS, the directive X values, the
// trace itself — so the whole pipeline reruns per point; the points are
// fully independent and run in parallel on the engine's pool.
func PageSizeSensitivity(eng *engine.Engine, program string, pageSizes []int) ([]PageSizeRow, error) {
	w, err := workloads.Get(program)
	if err != nil {
		return nil, err
	}
	set := w.DefaultSet()
	return engine.MapNamed(eng, "pagesize", pageSizes, func(rc *engine.RunCtx, ps int) (PageSizeRow, error) {
		rc.Describe(fmt.Sprintf("%s ps=%d", program, ps), "CD")
		prog, err := core.CompileSourceOpts(w.Name, w.Source, core.Options{
			Geometry: mem.Geometry{PageSize: ps, ElemSize: 4},
		})
		if err != nil {
			return PageSizeRow{}, err
		}
		tr, err := prog.Trace()
		if err != nil {
			return PageSizeRow{}, err
		}
		cd, err := eng.CDRun(rc, tr, set, cdMinAlloc)
		if err != nil {
			return PageSizeRow{}, err
		}
		rc.Report(cd)
		lru, err := eng.LRUSweep(rc, tr)
		if err != nil {
			return PageSizeRow{}, err
		}
		_, stLRU := lru.MinST()
		return PageSizeRow{
			Program:  program,
			PageSize: ps,
			V:        prog.V(),
			CDPF:     cd.Faults,
			CDMEM:    cd.MEM(),
			CDST:     cd.ST(),
			LRUMinST: stLRU,
			PctSTLRU: pct(stLRU, cd.ST()),
		}, nil
	})
}

// RenderPageSize formats the sensitivity rows.
func RenderPageSize(rows []PageSizeRow) string {
	var b strings.Builder
	b.WriteString("Page-size sensitivity: CD (canonical set) vs tuned-LRU minimum\n")
	fmt.Fprintf(&b, "%-8s %9s %6s %8s %8s %12s %12s %10s\n",
		"PROGRAM", "page", "V", "CD-PF", "CD-MEM", "CD-ST", "LRUmin-ST", "%ST-LRU")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %9d %6d %8d %8.2f %12.4g %12.4g %9.0f%%\n",
			r.Program, r.PageSize, r.V, r.CDPF, r.CDMEM, r.CDST, r.LRUMinST, r.PctSTLRU)
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
