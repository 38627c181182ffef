package vmsim

import (
	"math"
	"testing"

	"cdmm/internal/directive"
	"cdmm/internal/mem"
	"cdmm/internal/policy"
	"cdmm/internal/trace"
)

// refTrace builds a trace from a raw page string.
func refTrace(pages ...mem.Page) *trace.Trace {
	tr := trace.New("t")
	for _, p := range pages {
		tr.AddRef(p)
	}
	return tr
}

func TestRunMetricsSingleFault(t *testing.T) {
	tr := refTrace(1, 1, 1)
	res := Run(tr, policy.NewLRU(4))
	if res.Faults != 1 {
		t.Fatalf("faults = %d, want 1", res.Faults)
	}
	// Virtual time: first ref 1+2000, then 1, 1 => 2003.
	if res.VirtualTime != 2003 {
		t.Errorf("virtual time = %d, want 2003", res.VirtualTime)
	}
	// A fixed partition is charged whole: ST = 4 * 2003, MEM = 4.
	if res.SpaceTime != 4*2003 {
		t.Errorf("ST = %v, want %v", res.SpaceTime, 4*2003)
	}
	if math.Abs(res.MEM()-4) > 1e-9 {
		t.Errorf("MEM = %v, want 4", res.MEM())
	}
}

func TestRunSpaceTimeGrowth(t *testing.T) {
	// Two pages, two faults, one hit under a fixed 4-page partition.
	tr := refTrace(1, 2, 1)
	res := Run(tr, policy.NewLRU(4))
	wantST := float64(4 * (2001 + 2001 + 1))
	if res.SpaceTime != wantST {
		t.Errorf("ST = %v, want %v", res.SpaceTime, wantST)
	}
	if res.MaxResident != 2 {
		t.Errorf("max resident = %d, want 2", res.MaxResident)
	}
}

func TestRunWSChargedResident(t *testing.T) {
	// WS is a variable-allocation policy: charged its working set.
	tr := refTrace(1, 1, 1)
	res := Run(tr, policy.NewWS(10))
	// One fault (2001) plus two hits, working set size 1 throughout.
	if res.SpaceTime != 2003 {
		t.Errorf("ST = %v, want 2003", res.SpaceTime)
	}
	if math.Abs(res.MEM()-1) > 1e-9 {
		t.Errorf("MEM = %v, want 1", res.MEM())
	}
}

func TestRunCDChargedResident(t *testing.T) {
	// CD's allocation is a demand-assignment ceiling: the charge is the
	// resident set, not the grant.
	tr := trace.New("t")
	d := &directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 5}}}
	tr.AddAlloc(d)
	tr.AddRef(1)
	tr.AddRef(1)
	cd := policy.NewCD(policy.SelectLevel(1), 1)
	res := Run(tr, cd)
	if res.SpaceTime != 2002 {
		t.Errorf("ST = %v, want %v", res.SpaceTime, 2002)
	}
	if cd.Allocation() != 5 {
		t.Errorf("allocation ceiling = %d, want 5", cd.Allocation())
	}
}

func TestRunDirectivesReachCD(t *testing.T) {
	tr := trace.New("t")
	d := &directive.Allocate{Arms: []directive.Arm{{PI: 1, X: 1}}}
	tr.AddAlloc(d)
	tr.AddRef(1)
	tr.AddLock(2, 0, []mem.Page{1})
	tr.AddRef(2) // fills the single allocated frame; 1 rides above, locked
	tr.AddRef(3) // must evict 2 (1 locked)
	tr.AddRef(2) // faults again
	tr.AddUnlock([]mem.Page{1})

	cd := policy.NewCD(policy.SelectLevel(1), 1)
	res := Run(tr, cd)
	if res.Faults != 4 {
		t.Errorf("faults = %d, want 4", res.Faults)
	}
	if cd.Allocation() != 1 {
		t.Errorf("allocation = %d, want 1", cd.Allocation())
	}
}

func TestSweepLRUMonotone(t *testing.T) {
	// Cyclic string: faults should drop sharply at m = n.
	var pages []mem.Page
	for r := 0; r < 10; r++ {
		for i := 1; i <= 6; i++ {
			pages = append(pages, mem.Page(i))
		}
	}
	tr := refTrace(pages...)
	res := make([]Result, 8)
	for m := 1; m <= len(res); m++ {
		res[m-1] = Run(tr, policy.NewLRU(m))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Faults > res[i-1].Faults {
			t.Errorf("LRU faults not monotone: m=%d has %d > m=%d has %d", i+1, res[i].Faults, i, res[i-1].Faults)
		}
	}
	if res[5].Faults != 6 { // m=6 holds the whole loop
		t.Errorf("faults at m=6: %d, want 6", res[5].Faults)
	}
	if res[4].Faults != 60 { // m=5 thrashes: every ref faults
		t.Errorf("faults at m=5: %d, want 60", res[4].Faults)
	}
}

func TestSweepWS(t *testing.T) {
	var pages []mem.Page
	for r := 0; r < 5; r++ {
		for i := 1; i <= 4; i++ {
			pages = append(pages, mem.Page(i))
		}
	}
	tr := refTrace(pages...)
	var res []Result
	for _, tau := range []int{1, 4, 16} {
		res = append(res, Run(tr, policy.NewWS(tau)))
	}
	// Larger windows: fewer or equal faults, larger or equal MEM.
	for i := 1; i < len(res); i++ {
		if res[i].Faults > res[i-1].Faults {
			t.Errorf("WS faults not monotone in tau")
		}
		if res[i].MEM() < res[i-1].MEM()-1e-9 {
			t.Errorf("WS MEM not monotone in tau")
		}
	}
}

func TestDefaultTaus(t *testing.T) {
	taus := DefaultTaus(1000)
	if taus[0] != 1 {
		t.Errorf("first tau = %d, want 1", taus[0])
	}
	for i := 1; i < len(taus); i++ {
		if taus[i] <= taus[i-1] {
			t.Fatalf("taus not strictly increasing at %d: %v", i, taus[i-3:i+1])
		}
		if taus[i] > 1000 {
			t.Fatalf("tau %d exceeds reference length", taus[i])
		}
	}
	if len(taus) < 20 {
		t.Errorf("ladder too sparse: %d entries", len(taus))
	}
}

func TestFaultRate(t *testing.T) {
	tr := refTrace(1, 2, 3, 1, 2, 3)
	res := Run(tr, policy.NewLRU(10))
	if got := res.FaultRate(); math.Abs(got-500) > 1e-9 {
		t.Errorf("fault rate = %v, want 500 per thousand", got)
	}
}

func TestRunIsRepeatable(t *testing.T) {
	tr := refTrace(1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5)
	p := policy.NewLRU(3)
	r1 := Run(tr, p)
	r2 := Run(tr, p) // Run resets the policy
	if r1.Faults != r2.Faults || r1.SpaceTime != r2.SpaceTime {
		t.Errorf("results differ across runs: %+v vs %+v", r1, r2)
	}
}
