package experiments

import (
	"fmt"
	"strings"

	"cdmm/internal/directive"
	"cdmm/internal/engine"
	"cdmm/internal/policy"
)

// Detune scales every granted ALLOCATE request by factor, modeling a
// compiler that systematically over- or under-estimates locality sizes.
// The paper's §1 cites the "10% de-tuned policy" controllability
// discussion ([GrDe78], [Denn80]) and the authors' finding that it is "too
// optimistic" for numerical programs; this study asks the analogous
// question of CD itself: how sensitive is the policy to errors in the
// compile-time X values?
func Detune(sel policy.ArmSelector, factor float64) policy.ArmSelector {
	return func(label string, arms []directive.Arm) (directive.Arm, bool) {
		a, ok := sel(label, arms)
		if !ok {
			return a, false
		}
		x := int(float64(a.X)*factor + 0.5)
		if x < 1 {
			x = 1
		}
		return directive.Arm{PI: a.PI, X: x}, true
	}
}

// DetuneRow is one (program, factor) measurement.
type DetuneRow struct {
	Variant Variant
	Factor  float64
	PF      int
	MEM     float64
	ST      float64
}

// DetuneStudy runs each variant's canonical CD set with every X scaled by
// each factor. Each variant's whole factor grid is one engine run, the
// engine's CDDetune artifact (one replay per factor), and rows come back
// variant-major, factor-minor.
func DetuneStudy(eng *engine.Engine, variants []Variant, factors []float64) ([]DetuneRow, error) {
	if variants == nil {
		variants = Table2Variants
	}
	if factors == nil {
		factors = []float64{0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0}
	}
	grids, err := engine.MapNamed(eng, "detune", variants, func(rc *engine.RunCtx, v Variant) ([]DetuneRow, error) {
		rc.Describe(fmt.Sprintf("%s/%s x%d factors", v.Program, v.Set, len(factors)), "CD detuned")
		_, tr, set, err := variant(v)
		if err != nil {
			return nil, err
		}
		results, err := eng.CDDetune(rc, tr, set, cdMinAlloc, factors, Detune)
		if err != nil {
			return nil, err
		}
		rows := make([]DetuneRow, len(factors))
		report := len(factors) - 1
		for i, f := range factors {
			rows[i] = DetuneRow{Variant: v, Factor: f, PF: results[i].Faults, MEM: results[i].MEM(), ST: results[i].ST()}
			if f == 1.0 {
				report = i // the /progress drill-down shows the baseline run
			}
		}
		rc.Report(results[report])
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]DetuneRow, 0, len(variants)*len(factors))
	for _, g := range grids {
		out = append(out, g...)
	}
	return out, nil
}

// RenderDetune formats the study with one line per (program, factor).
func RenderDetune(rows []DetuneRow) string {
	var b strings.Builder
	b.WriteString("CD sensitivity to mis-estimated locality sizes (X scaled by factor)\n")
	fmt.Fprintf(&b, "%-8s %7s %8s %8s %12s %10s\n", "PROGRAM", "factor", "PF", "MEM", "ST", "ST/ST(1.0)")
	base := map[string]float64{}
	for _, r := range rows {
		if r.Factor == 1.0 {
			base[r.Variant.Set] = r.ST
		}
	}
	for _, r := range rows {
		rel := 0.0
		if b0 := base[r.Variant.Set]; b0 > 0 {
			rel = r.ST / b0
		}
		fmt.Fprintf(&b, "%-8s %7.2f %8d %8.2f %12.4g %10.2f\n",
			r.Variant.Set, r.Factor, r.PF, r.MEM, r.ST, rel)
	}
	return b.String()
}
