// Package experiments reproduces the paper's §5 evaluation: the effect of
// directive-set choice on CD (Table 1), minimum space-time cost of LRU and
// WS versus CD (Table 2), equal-memory comparison (Table 3), and
// equal-fault comparison (Table 4), with the paper's metrics —
//
//	%MEM = (MEM(other) − MEM(CD)) / MEM(CD) × 100
//	%ST  = (ST(other)  − ST(CD))  / ST(CD)  × 100
//	ΔPF  = PF(other) − PF(CD)
//
// — over the nine-workload suite and its directive-set variants.
//
// Every table is an embarrassingly parallel grid of independent strata,
// so each generator declares its rows as a run plan and executes it
// through the engine package: rows run concurrently on a bounded worker
// pool, shared prerequisites (compiled traces, LRU/WS sweeps, CD runs)
// are memoized with singleflight semantics, and results are gathered in
// declaration order — the rendered tables are byte-identical at any
// parallelism level. Every generator takes the engine it runs on; the
// caller owns it, and runs sharing one engine share its memo store.
package experiments

import (
	"fmt"

	"cdmm/internal/engine"
	"cdmm/internal/vmsim"
	"cdmm/internal/workloads"
)

// Variant names one run: a program plus one of its directive sets.
type Variant struct {
	Program string
	Set     string
}

// Table1Variants are the rows of Table 1: the directive-set study.
var Table1Variants = []Variant{
	{"MAIN", "MAIN"}, {"MAIN", "MAIN1"}, {"MAIN", "MAIN2"}, {"MAIN", "MAIN3"},
	{"FDJAC", "FDJAC"}, {"FDJAC", "FDJAC1"},
	{"TQL", "TQL1"}, {"TQL", "TQL2"},
}

// Table2Variants are the rows of Table 2: one canonical set per program
// (the paper's Table 2 lists its own best-ST sets, e.g. MAIN3; our
// canonical sets play that role — see EXPERIMENTS.md for the mapping).
var Table2Variants = []Variant{
	{"MAIN", "MAIN"}, {"FDJAC", "FDJAC"}, {"FIELD", "FIELD"},
	{"INIT", "INIT"}, {"APPROX", "APPROX"}, {"HYBRJ", "HYBRJ"},
	{"CONDUCT", "CONDUCT"}, {"TQL", "TQL1"},
}

// Table34Variants are the rows of Tables 3 and 4: every variant.
var Table34Variants = []Variant{
	{"MAIN", "MAIN"}, {"MAIN", "MAIN1"}, {"MAIN", "MAIN2"}, {"MAIN", "MAIN3"},
	{"FDJAC", "FDJAC"}, {"FDJAC", "FDJAC1"},
	{"FIELD", "FIELD"}, {"INIT", "INIT"}, {"APPROX", "APPROX"},
	{"HYBRJ", "HYBRJ"}, {"CONDUCT", "CONDUCT"},
	{"TQL", "TQL1"}, {"TQL", "TQL2"}, {"HWSCRT", "HWSCRT"},
}

// cdMinAlloc is the system-default minimum allocation the §5 runs use.
const cdMinAlloc = 2

// variantSet resolves a variant's directive set from its compiled
// program.
func variantSet(eng *engine.Engine, rc *engine.RunCtx, v Variant) (workloads.Set, error) {
	c, err := eng.Compiled(rc, v.Program)
	if err != nil {
		return workloads.Set{}, err
	}
	set, ok := c.Program.Set(v.Set)
	if !ok {
		return workloads.Set{}, fmt.Errorf("experiments: program %s has no set %q", v.Program, v.Set)
	}
	return set, nil
}

// cdRun runs (memoized in eng) the CD policy for one variant.
func cdRun(eng *engine.Engine, rc *engine.RunCtx, v Variant) (vmsim.Result, error) {
	set, err := variantSet(eng, rc, v)
	if err != nil {
		return vmsim.Result{}, err
	}
	return eng.CDRun(rc, v.Program, set, cdMinAlloc)
}

func pct(other, cd float64) float64 {
	if cd == 0 {
		return 0
	}
	return (other - cd) / cd * 100
}

// Row1 is one Table 1 row: CD under one directive set.
type Row1 struct {
	Variant Variant
	MEM     float64
	PF      int
	ST      float64
}

// Table1 reproduces Table 1: the effect of executing different directive
// sets under the CD policy.
func Table1(eng *engine.Engine) ([]Row1, error) {
	return engine.MapNamed(eng, "table1", Table1Variants, func(rc *engine.RunCtx, v Variant) (Row1, error) {
		rc.Describe(v.Program+"/"+v.Set, "CD")
		r, err := cdRun(eng, rc, v)
		if err != nil {
			return Row1{}, err
		}
		rc.Report(r)
		return Row1{Variant: v, MEM: r.MEM(), PF: r.Faults, ST: r.ST()}, nil
	})
}

// Row2 is one Table 2 row: excess minimum space-time cost of LRU and WS
// over CD.
type Row2 struct {
	Variant  Variant
	CDST     float64
	LRUMinST float64
	WSMinST  float64
	// PctSTLRU and PctSTWS are the paper's %ST columns.
	PctSTLRU float64
	PctSTWS  float64
	// LRUAt and WSAt record the allocation / window achieving the minimum.
	LRUAt int
	WSAt  int
}

// Table2 reproduces Table 2: minimal space-time cost of LRU and WS versus
// CD. The LRU minimum is over every allocation 1..V; the WS minimum is
// over the τ ladder.
func Table2(eng *engine.Engine) ([]Row2, error) {
	return engine.MapNamed(eng, "table2", Table2Variants, func(rc *engine.RunCtx, v Variant) (Row2, error) {
		rc.Describe(v.Program+"/"+v.Set, "CD vs LRU/WS minima")
		cd, err := cdRun(eng, rc, v)
		if err != nil {
			return Row2{}, err
		}
		rc.Report(cd)
		lru, err := eng.LRUSweep(rc, v.Program)
		if err != nil {
			return Row2{}, err
		}
		mLRU, stLRU := lru.MinST()
		tauWS, wsRes, err := eng.WSMinST(rc, v.Program)
		if err != nil {
			return Row2{}, err
		}
		return Row2{
			Variant:  v,
			CDST:     cd.ST(),
			LRUMinST: stLRU,
			WSMinST:  wsRes.ST(),
			PctSTLRU: pct(stLRU, cd.ST()),
			PctSTWS:  pct(wsRes.ST(), cd.ST()),
			LRUAt:    mLRU,
			WSAt:     tauWS,
		}, nil
	})
}

// Row3 is one Table 3 row: LRU and WS versus CD at equal average memory.
type Row3 struct {
	Variant Variant
	CDMEM   float64
	CDPF    int
	CDST    float64

	LRUAlloc   int
	DeltaPFLRU int
	PctSTLRU   float64

	WSTau     int
	WSMEM     float64
	DeltaPFWS int
	PctSTWS   float64
}

// Table3 reproduces Table 3: allocate LRU and WS the same average memory
// CD used (LRU gets the rounded allocation, WS the window whose mean
// working-set size is closest) and compare faults and space-time cost.
func Table3(eng *engine.Engine) ([]Row3, error) {
	return engine.MapNamed(eng, "table3", Table34Variants, func(rc *engine.RunCtx, v Variant) (Row3, error) {
		rc.Describe(v.Program+"/"+v.Set, "CD vs equal-MEM LRU/WS")
		cd, err := cdRun(eng, rc, v)
		if err != nil {
			return Row3{}, err
		}
		rc.Report(cd)
		lruSweep, err := eng.LRUSweep(rc, v.Program)
		if err != nil {
			return Row3{}, err
		}
		m := int(cd.MEM() + 0.5)
		if m < 1 {
			m = 1
		}
		lru := lruSweep.Result(m)

		wsSweep, err := eng.WSSweep(rc, v.Program)
		if err != nil {
			return Row3{}, err
		}
		tau := wsSweep.TauForMEM(cd.MEM())
		ws, err := eng.WSRun(rc, v.Program, tau)
		if err != nil {
			return Row3{}, err
		}

		return Row3{
			Variant:    v,
			CDMEM:      cd.MEM(),
			CDPF:       cd.Faults,
			CDST:       cd.ST(),
			LRUAlloc:   m,
			DeltaPFLRU: lru.Faults - cd.Faults,
			PctSTLRU:   pct(lru.ST(), cd.ST()),
			WSTau:      tau,
			WSMEM:      ws.MEM(),
			DeltaPFWS:  ws.Faults - cd.Faults,
			PctSTWS:    pct(ws.ST(), cd.ST()),
		}, nil
	})
}

// Row4 is one Table 4 row: the memory and space-time cost LRU and WS need
// to generate at most as many faults as CD.
type Row4 struct {
	Variant Variant
	CDMEM   float64
	CDPF    int
	CDST    float64

	LRUAlloc  int
	LRUOK     bool // false if no allocation achieves the fault target
	PctMEMLRU float64
	PctSTLRU  float64

	WSTau    int
	WSOK     bool
	PctMEMWS float64
	PctSTWS  float64
}

// Table4 reproduces Table 4: the cost of generating at most CD's fault
// count — the smallest LRU allocation and WS window that do so, compared
// on memory and space-time cost.
func Table4(eng *engine.Engine) ([]Row4, error) {
	return engine.MapNamed(eng, "table4", Table34Variants, func(rc *engine.RunCtx, v Variant) (Row4, error) {
		rc.Describe(v.Program+"/"+v.Set, "CD vs equal-PF LRU/WS")
		cd, err := cdRun(eng, rc, v)
		if err != nil {
			return Row4{}, err
		}
		rc.Report(cd)
		lruSweep, err := eng.LRUSweep(rc, v.Program)
		if err != nil {
			return Row4{}, err
		}
		m, okLRU := lruSweep.MinAllocationForFaults(cd.Faults)
		lru := lruSweep.Result(m)

		wsSweep, err := eng.WSSweep(rc, v.Program)
		if err != nil {
			return Row4{}, err
		}
		tau, okWS := wsSweep.MinTauForFaults(cd.Faults)
		ws, err := eng.WSRun(rc, v.Program, tau)
		if err != nil {
			return Row4{}, err
		}

		return Row4{
			Variant:   v,
			CDMEM:     cd.MEM(),
			CDPF:      cd.Faults,
			CDST:      cd.ST(),
			LRUAlloc:  m,
			LRUOK:     okLRU,
			PctMEMLRU: pct(lru.MEM(), cd.MEM()),
			PctSTLRU:  pct(lru.ST(), cd.ST()),
			WSTau:     tau,
			WSOK:      okWS,
			PctMEMWS:  pct(ws.MEM(), cd.MEM()),
			PctSTWS:   pct(ws.ST(), cd.ST()),
		}, nil
	})
}
