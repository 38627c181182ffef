// Chaos study: the fault matrix (program × fault class × intensity)
// exercising the CD policy's degraded-mode contract. Each cell perturbs
// a compiled trace (or the machine under it) with a seeded injector from
// internal/chaos, replays it through vmsim.RunChecked with directive
// validation enabled, and reports the damage relative to two anchors:
// the clean CD run (how much of CD's §5 advantage the fault destroys)
// and the WS fallback floor (the directive-blind policy a degraded run
// converges to). With a fixed seed the matrix is deterministic at any
// engine parallelism.
package experiments

import (
	"fmt"
	"strings"

	"cdmm/internal/chaos"
	"cdmm/internal/engine"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// ChaosCell identifies one fault-matrix run.
type ChaosCell struct {
	Variant   Variant
	Fault     string
	Intensity float64
}

// ChaosRow is one completed cell.
type ChaosRow struct {
	Cell ChaosCell
	// Res is the checked run under injection.
	Res vmsim.Result
	// Clean is the unperturbed CD baseline for the same variant.
	Clean vmsim.Result
	// Floor is WS at the degraded-mode fallback window over the clean
	// trace — where a degraded run is headed.
	Floor vmsim.Result
	// Err records a simulator invariant violation or panic surfaced by
	// the checked run ("" when the cell completed cleanly). Any non-empty
	// value is a harness finding: no fault class is allowed to break the
	// simulator's own accounting.
	Err string
}

// ChaosConfig parameterizes the matrix. The zero value (after defaults)
// reproduces the documented study.
type ChaosConfig struct {
	// Seed drives every injector; each cell derives its own stream from
	// (Seed, program, set, fault, intensity).
	Seed uint64
	// Variants are the programs under test (default: the canonical sets
	// of MAIN, FDJAC, TQL and CONDUCT).
	Variants []Variant
	// Faults are the injector names to run (default: all registered).
	Faults []string
	// Intensities are the fault dials to sweep (default: 0.1 and 0.4).
	Intensities []float64
}

// defaults fills unset fields.
func (c *ChaosConfig) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Variants) == 0 {
		c.Variants = []Variant{{"MAIN", "MAIN"}, {"FDJAC", "FDJAC"}, {"TQL", "TQL1"}, {"CONDUCT", "CONDUCT"}}
	}
	if len(c.Faults) == 0 {
		c.Faults = chaos.Names()
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{0.1, 0.4}
	}
}

// Cells expands the config into the matrix's cell list in its fixed
// iteration order (variant-major, then fault, then intensity).
func (c *ChaosConfig) Cells() []ChaosCell {
	c.defaults()
	var cells []ChaosCell
	for _, v := range c.Variants {
		for _, f := range c.Faults {
			for _, in := range c.Intensities {
				cells = append(cells, ChaosCell{Variant: v, Fault: f, Intensity: in})
			}
		}
	}
	return cells
}

// ChaosMatrix runs the fault matrix through the engine. Simulator
// breakage (invariant violations, panics) is reported in the rows, not
// as an error: the matrix's job is to complete and show the damage.
func ChaosMatrix(eng *engine.Engine, cfg ChaosConfig) ([]ChaosRow, error) {
	cells := cfg.Cells()
	return engine.MapNamed(eng, "chaos", cells, func(rc *engine.RunCtx, cell ChaosCell) (ChaosRow, error) {
		row := ChaosRow{Cell: cell}
		rc.Describe(fmt.Sprintf("%s/%s %s@%g", cell.Variant.Program, cell.Variant.Set, cell.Fault, cell.Intensity), "CD+faults")

		comp, tr, set, err := variant(cell.Variant)
		if err != nil {
			return row, err
		}
		fault, err := chaos.Get(cell.Fault)
		if err != nil {
			return row, err
		}

		// Anchors first (memoized across cells).
		if row.Clean, err = eng.CDRun(rc, tr, set, cdMinAlloc); err != nil {
			return row, err
		}
		if row.Floor, err = eng.WSRun(rc, tr, policy.DefaultFallbackTau); err != nil {
			return row, err
		}

		rng := chaos.NewRand(chaos.DeriveSeed(cfg.Seed,
			cell.Variant.Program, cell.Variant.Set, cell.Fault, fmt.Sprintf("%g", cell.Intensity)))

		if fault.Perturb != nil {
			tr = fault.Perturb(tr, rng, cell.Intensity)
		}
		cd := policy.NewCD(set.Selector(), cdMinAlloc)
		cd.Check = &policy.CheckConfig{MaxPage: comp.V()}
		var pol policy.Policy = cd
		if fault.Pressure != nil {
			pol = chaos.NewPressured(cd, fault.Pressure(comp.V(), tr.Refs, rng, cell.Intensity))
		}

		row.Res, row.Err = runChaosCell(tr, pol, rc)
		rc.Report(row.Res)
		return row, nil
	})
}

// runChaosCell executes one checked run, converting panics and invariant
// violations into the row's Err field — a perturbed trace must never
// take the matrix down.
func runChaosCell(tr *trace.Trace, pol policy.Policy, rc *engine.RunCtx) (res vmsim.Result, errStr string) {
	defer func() {
		if r := recover(); r != nil {
			errStr = fmt.Sprintf("panic: %v", r)
		}
	}()
	res, err := vmsim.RunChecked(tr, pol, rc.Obs)
	if err != nil {
		errStr = err.Error()
	}
	return res, errStr
}

// RenderChaos prints the fault matrix: per cell the checked run's PF /
// MEM / ST, the ST inflation versus clean CD (how much of the paper's §5
// advantage the fault burned) and versus the WS fallback floor (negative
// means the run still beats plain WS), and the degradation status.
func RenderChaos(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString("Chaos Matrix: CD Under Injected Faults (checked runs)\n")
	fmt.Fprintf(&b, "%-10s %-20s %5s | %8s %8s %11s | %9s %9s | %s\n",
		"PROGRAM", "FAULT", "INT", "PF", "MEM", "ST", "%ST/CD", "%ST/WS", "STATUS")
	for _, r := range rows {
		status := "ok"
		switch {
		case r.Err != "":
			status = "BROKEN: " + r.Err
		case r.Res.Degraded:
			status = "degraded: " + r.Res.DegradedReason
		}
		fmt.Fprintf(&b, "%-10s %-20s %5.2f | %8d %8.2f %11.4g | %+9.0f %+9.0f | %s\n",
			r.Cell.Variant.Set, r.Cell.Fault, r.Cell.Intensity,
			r.Res.Faults, r.Res.MEM(), r.Res.ST(),
			pct(r.Res.ST(), r.Clean.ST()), pct(r.Res.ST(), r.Floor.ST()),
			status)
	}
	return b.String()
}
