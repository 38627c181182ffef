package vmsim

import (
	"cdmm/internal/mem"
	"cdmm/internal/trace"
)

// randomTrace builds a deterministic pseudo-random trace with locality
// phases (bursts around a moving base), a realistic shape for replay
// tests.
func randomTrace(seed uint64, n, universe int) *trace.Trace {
	rng := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	tr := trace.New("rand")
	base := 0
	for i := 0; i < n; i++ {
		if rng()%97 == 0 {
			base = int(rng()) % universe
		}
		span := 4 + int(rng()%8)
		tr.AddRef(mem.Page((base + int(rng())%span) % universe))
	}
	tr.Finish()
	return tr
}
