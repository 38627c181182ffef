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
// pool, shared prerequisites (LRU/WS sweeps, CD runs) are memoized per
// trace with singleflight semantics, and results are gathered in
// declaration order — the rendered tables are byte-identical at any
// parallelism level. Every generator takes the engine it runs on; the
// caller owns it, and runs sharing one engine share its memo store.
package experiments

import (
	"fmt"

	"cdmm/internal/core"
	"cdmm/internal/engine"
	"cdmm/internal/trace"
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

// variant resolves a variant to its compiled program, the program's
// trace and the variant's directive set. workloads.Compile compiles each
// program once per process, so every variant of a program shares one
// trace and with it the engine's artifacts.
func variant(v Variant) (*core.Program, *trace.Trace, workloads.Set, error) {
	w, err := workloads.Get(v.Program)
	if err != nil {
		return nil, nil, workloads.Set{}, err
	}
	set, ok := w.Set(v.Set)
	if !ok {
		return nil, nil, workloads.Set{}, fmt.Errorf("experiments: program %s has no set %q", v.Program, v.Set)
	}
	p, err := workloads.Compile(v.Program)
	if err != nil {
		return nil, nil, workloads.Set{}, err
	}
	tr, err := p.Trace()
	if err != nil {
		return nil, nil, workloads.Set{}, err
	}
	return p, tr, set, nil
}

// cdRun runs (memoized in eng) the CD policy for one variant and returns
// the variant's trace with the result.
func cdRun(eng *engine.Engine, rc *engine.RunCtx, v Variant) (*trace.Trace, vmsim.Result, error) {
	_, tr, set, err := variant(v)
	if err != nil {
		return nil, vmsim.Result{}, err
	}
	r, err := eng.CDRun(rc, tr, set, cdMinAlloc)
	return tr, r, err
}

// wsWindows returns the WS windows Tables 3 and 4 compare at for every
// variant of program: each variant's equal-MEM window TauForMEM(MEM) and
// equal-PF window MinTauForFaults(PF), from its memoized CD run. A row
// passes them as the also windows of its first WS request, so in curve
// mode each program's trace goes through the grid engine once per
// engine.
func wsWindows(eng *engine.Engine, rc *engine.RunCtx, tr *trace.Trace, program string) ([]int, error) {
	s, err := eng.WSSweep(rc, tr)
	if err != nil {
		return nil, err
	}
	var taus []int
	for _, v := range Table34Variants {
		if v.Program != program {
			continue
		}
		_, cd, err := cdRun(eng, rc, v)
		if err != nil {
			return nil, err
		}
		tau, _ := s.MinTauForFaults(cd.Faults)
		taus = append(taus, s.TauForMEM(cd.MEM()), tau)
	}
	return taus, nil
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

// rowFunc computes one variant's row of a table, and returns it with the
// CD run the row compares against.
type rowFunc[R any] func(eng *engine.Engine, rc *engine.RunCtx, v Variant) (R, vmsim.Result, error)

// tablePlan runs a table's rows, one plan item per variant, each
// described as policy and reporting its CD run on its Progress entry.
func tablePlan[R any](eng *engine.Engine, label, policy string, variants []Variant, row rowFunc[R]) ([]R, error) {
	return engine.MapNamed(eng, label, variants, func(rc *engine.RunCtx, v Variant) (R, error) {
		rc.Describe(v.Program+"/"+v.Set, policy)
		r, cd, err := row(eng, rc, v)
		if err == nil {
			rc.Report(cd)
		}
		return r, err
	})
}

// programs lists the programs of Tables 1–4 in the order their variants
// first appear in the tables.
func programs() []string {
	var progs []string
	seen := map[string]bool{}
	for _, vs := range [][]Variant{Table1Variants, Table2Variants, Table34Variants} {
		for _, v := range vs {
			if !seen[v.Program] {
				seen[v.Program] = true
				progs = append(progs, v.Program)
			}
		}
	}
	return progs
}

// WarmTables runs, ahead of the four table plans, one plan item per
// program (programs' order) that computes the program's rows of all
// four tables through the row functions the table plans run. It
// therefore requests every memo entry the tables read, and the table
// plans that follow find them all. A program's trace, sweeps and CD
// runs are built by one item, so no worker waits on another's, and no
// table waits for the slowest row of the one before it.
func WarmTables(eng *engine.Engine) error {
	_, err := engine.MapNamed(eng, "programs", programs(), func(rc *engine.RunCtx, prog string) (struct{}, error) {
		rc.Describe(prog, "Tables 1-4")
		if err := programRows(eng, rc, prog, Table1Variants, row1); err != nil {
			return struct{}{}, err
		}
		if err := programRows(eng, rc, prog, Table2Variants, row2); err != nil {
			return struct{}{}, err
		}
		if err := programRows(eng, rc, prog, Table34Variants, row3); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, programRows(eng, rc, prog, Table34Variants, row4)
	})
	return err
}

// programRows computes the rows of variants that belong to prog.
func programRows[R any](eng *engine.Engine, rc *engine.RunCtx, prog string, variants []Variant, row rowFunc[R]) error {
	for _, v := range variants {
		if v.Program != prog {
			continue
		}
		if _, _, err := row(eng, rc, v); err != nil {
			return err
		}
	}
	return nil
}

// Table1 reproduces Table 1: the effect of executing different directive
// sets under the CD policy.
func Table1(eng *engine.Engine) ([]Row1, error) {
	return tablePlan(eng, "table1", "CD", Table1Variants, row1)
}

func row1(eng *engine.Engine, rc *engine.RunCtx, v Variant) (Row1, vmsim.Result, error) {
	_, r, err := cdRun(eng, rc, v)
	if err != nil {
		return Row1{}, r, err
	}
	return Row1{Variant: v, MEM: r.MEM(), PF: r.Faults, ST: r.ST()}, r, nil
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
// over the τ ladder, whose grid pass also computes the windows Tables 3
// and 4 read for the program (wsWindows).
func Table2(eng *engine.Engine) ([]Row2, error) {
	return tablePlan(eng, "table2", "CD vs LRU/WS minima", Table2Variants, row2)
}

func row2(eng *engine.Engine, rc *engine.RunCtx, v Variant) (Row2, vmsim.Result, error) {
	tr, cd, err := cdRun(eng, rc, v)
	if err != nil {
		return Row2{}, cd, err
	}
	lru, err := eng.LRUSweep(rc, tr)
	if err != nil {
		return Row2{}, cd, err
	}
	mLRU, stLRU := lru.MinST()
	also, err := wsWindows(eng, rc, tr, v.Program)
	if err != nil {
		return Row2{}, cd, err
	}
	tauWS, wsRes, err := eng.WSMinST(rc, tr, also...)
	if err != nil {
		return Row2{}, cd, err
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
	}, cd, nil
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
	return tablePlan(eng, "table3", "CD vs equal-MEM LRU/WS", Table34Variants, row3)
}

func row3(eng *engine.Engine, rc *engine.RunCtx, v Variant) (Row3, vmsim.Result, error) {
	tr, cd, err := cdRun(eng, rc, v)
	if err != nil {
		return Row3{}, cd, err
	}
	lruSweep, err := eng.LRUSweep(rc, tr)
	if err != nil {
		return Row3{}, cd, err
	}
	m := int(cd.MEM() + 0.5)
	if m < 1 {
		m = 1
	}
	lru := lruSweep.Result(m)

	wsSweep, err := eng.WSSweep(rc, tr)
	if err != nil {
		return Row3{}, cd, err
	}
	tau := wsSweep.TauForMEM(cd.MEM())
	also, err := wsWindows(eng, rc, tr, v.Program)
	if err != nil {
		return Row3{}, cd, err
	}
	ws, err := eng.WSRun(rc, tr, tau, also...)
	if err != nil {
		return Row3{}, cd, err
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
	}, cd, nil
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
	return tablePlan(eng, "table4", "CD vs equal-PF LRU/WS", Table34Variants, row4)
}

func row4(eng *engine.Engine, rc *engine.RunCtx, v Variant) (Row4, vmsim.Result, error) {
	tr, cd, err := cdRun(eng, rc, v)
	if err != nil {
		return Row4{}, cd, err
	}
	lruSweep, err := eng.LRUSweep(rc, tr)
	if err != nil {
		return Row4{}, cd, err
	}
	m, okLRU := lruSweep.MinAllocationForFaults(cd.Faults)
	lru := lruSweep.Result(m)

	wsSweep, err := eng.WSSweep(rc, tr)
	if err != nil {
		return Row4{}, cd, err
	}
	tau, okWS := wsSweep.MinTauForFaults(cd.Faults)
	also, err := wsWindows(eng, rc, tr, v.Program)
	if err != nil {
		return Row4{}, cd, err
	}
	ws, err := eng.WSRun(rc, tr, tau, also...)
	if err != nil {
		return Row4{}, cd, err
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
	}, cd, nil
}
