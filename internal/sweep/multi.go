package sweep

import (
	"cdmm/internal/policy"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
)

// Multi replays one reference stream through a whole vector of policies
// in lockstep: a single cursor decodes each block once, every policy
// block-steps it, and the closing directive (if any) is resolved against
// the side tables once and applied to each policy. Per-policy results
// are exactly those of len(pols) independent replays — the decisions of
// each policy are untouched by the grouping — but the stream decode,
// directive resolution and page-id translation are paid once for the
// grid instead of once per cell. This is the grouped pass behind FIFO
// capacity grids and CD detune grids, which have no closed-form curve.
//
// Each policy steps through policy.Step; each policy value must be
// exclusive to this call.
func Multi(src trace.Source, pols []policy.Policy) ([]vmsim.Result, error) {
	meta := src.Meta()
	tb := src.Tables()
	outs := make([]policy.BlockResult, len(pols))
	for _, pol := range pols {
		vmsim.Prepare(pol, meta)
	}

	err := trace.Walk(src, trace.CursorOpts{}, func(b trace.Block) bool {
		for i, pol := range pols {
			policy.Step(pol, b.Pages, &outs[i])
		}
		if b.HasDir {
			for _, pol := range pols {
				vmsim.ApplyDirective(pol, tb, b.Dir)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	results := make([]vmsim.Result, len(pols))
	for i, pol := range pols {
		results[i] = vmsim.ResultOf(pol, meta.Refs, &outs[i])
	}
	return results, nil
}

// FIFOCurve replays the stream under FIFO at every capacity in caps via
// one lockstep traversal. FIFO is not a stack algorithm (Bélády's
// anomaly: faults are not monotone in capacity), so there is no
// closed-form curve; the grouped pass shares the stream decode instead.
func FIFOCurve(src trace.Source, caps []int) ([]vmsim.Result, error) {
	pols := make([]policy.Policy, len(caps))
	for i, m := range caps {
		pols[i] = policy.NewFIFO(m)
	}
	return Multi(src, pols)
}
