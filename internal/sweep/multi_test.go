package sweep_test

import (
	"testing"

	"cdmm/internal/core"
	"cdmm/internal/policy"
	"cdmm/internal/sweep"
	"cdmm/internal/trace"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

func TestFIFOCurveMatchesSeparateRuns(t *testing.T) {
	tr := randomTrace(31, 3000, 40)
	caps := []int{1, 2, 3, 5, 8, 13, 21, 34}
	got, err := sweep.FIFOCurve(tr, caps)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range caps {
		b := vmsim.Run(tr, policy.NewFIFO(m))
		if got[i] != b {
			t.Errorf("m=%d: lockstep %+v != solo %+v", m, got[i], b)
		}
	}
}

func TestMultiLRUWSMixMatchesSeparateRuns(t *testing.T) {
	tr := randomTrace(37, 2500, 30)
	mk := func() []policy.Policy {
		return []policy.Policy{
			policy.NewLRU(4), policy.NewLRU(12),
			policy.NewFIFO(7),
			policy.NewWS(50), policy.NewWS(500),
		}
	}
	got, err := sweep.Multi(tr, mk())
	if err != nil {
		t.Fatal(err)
	}
	for i, pol := range mk() {
		b := vmsim.Run(tr, pol)
		if got[i] != b {
			t.Errorf("%s: lockstep %+v != solo %+v", b.Policy, got[i], b)
		}
	}
}

// TestMultiCDDetuneMatchesSeparateRuns pins the CD detune grid: every
// workload's directive-carrying trace replayed under a grid of detuned
// CD policies in lockstep must equal the per-factor solo replays,
// including the CD-only counters (swap signals, lock releases,
// degradation).
func TestMultiCDDetuneMatchesSeparateRuns(t *testing.T) {
	for _, prog := range workloads.All() {
		c, tr := compiled(t, prog.Name)
		set := prog.DefaultSet()
		minAlloc := c.V()
		factors := []float64{0.25, 0.5, 1.0, 2.0}
		pols := make([]policy.Policy, len(factors))
		for i, f := range factors {
			pols[i] = policy.NewCD(set.Selector(), int(float64(minAlloc)*f))
		}
		got, err := sweep.Multi(tr, pols)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		for i, f := range factors {
			solo := vmsim.Run(tr, policy.NewCD(set.Selector(), int(float64(minAlloc)*f)))
			if got[i] != solo {
				t.Errorf("%s factor=%v:\n lockstep %+v\n solo     %+v", prog.Name, f, got[i], solo)
			}
		}
	}
}

// TestWorkloadCurvesMatchCells is the nine-workload differential: the
// one-pass LRU and WS curves must agree with per-cell replay at sampled
// capacities and windows on every compiled program trace.
func TestWorkloadCurvesMatchCells(t *testing.T) {
	for _, prog := range workloads.All() {
		_, tr := compiled(t, prog.Name)
		lru := mustLRU(t, tr)
		for _, m := range []int{1, 2, lru.V / 2, lru.V} {
			if m < 1 {
				m = 1
			}
			b := vmsim.Run(tr.RefsOnly(), policy.NewLRU(m))
			if got := lru.Result(m); got != b {
				t.Errorf("%s LRU m=%d:\n curve %+v\n cell  %+v", prog.Name, m, got, b)
			}
		}
		ws := mustWS(t, tr)
		for _, tau := range []int{1, 10, 100, 1000, tr.Refs} {
			got, err := ws.Run(tau)
			if err != nil {
				t.Fatal(err)
			}
			if b := vmsim.Run(tr.RefsOnly(), policy.NewWS(tau)); got != b {
				t.Errorf("%s WS tau=%d:\n curve %+v\n cell  %+v", prog.Name, tau, got, b)
			}
		}
	}
}

// compiled returns the named workload and its trace from the shared
// compile cache.
func compiled(t *testing.T, name string) (*core.Program, *trace.Trace) {
	t.Helper()
	c, err := workloads.Compile(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return c, tr
}
